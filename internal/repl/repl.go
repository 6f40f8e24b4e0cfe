// Package repl implements Cascade-Go's user interface (paper §3.1,
// Figure 3): a read-eval-print loop in the style of a Python interpreter.
// Verilog is lexed, parsed, and type-checked one input at a time; module
// declarations join the outer scope, statements append to the implicit
// root module, and code begins executing the moment it is accepted — IO
// side effects are visible immediately, while the JIT compiles hardware
// in the background. Batch mode feeds a file through the same path.
package repl

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"cascade/internal/hyper"
	"cascade/internal/persist"
	"cascade/internal/runtime"
	"cascade/internal/vclock"
	"cascade/internal/verilog"
)

// REPL couples a runtime to an input/output stream.
type REPL struct {
	rt  *runtime.Runtime
	out io.Writer

	// Multi-tenant attachment (NewSession): evals and ticks route
	// through sess so the hypervisor's residency scheduler stays in
	// charge, and hv powers the :sessions view. Both nil for the classic
	// single-tenant REPL.
	hv   *hyper.Hypervisor
	sess *hyper.Session

	mu   sync.Mutex // guards rt
	stop chan struct{}
	wg   sync.WaitGroup
}

// lockedWriter serialises writes to the REPL's output: the prompt loop
// and the background scheduler (through view) share the one stream.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// view adapts the REPL's writer to the runtime's view interface.
type view struct {
	out io.Writer
}

func (v *view) Display(text string)        { fmt.Fprint(v.out, text) }
func (v *view) Info(f string, args ...any) { fmt.Fprintf(v.out, "[cascade] "+f+"\n", args...) }
func (v *view) Error(err error)            { fmt.Fprintf(v.out, "[cascade] error: %v\n", err) }

// New builds a REPL over a runtime configured with opts; the runtime's
// view is pointed at out. The standard prelude is evaluated.
func New(opts runtime.Options, out io.Writer) (*REPL, error) {
	out = &lockedWriter{w: out}
	opts.View = &view{out: out}
	rt := runtime.New(opts)
	if err := rt.Eval(runtime.DefaultPrelude); err != nil {
		return nil, err
	}
	return &REPL{rt: rt, out: out, stop: make(chan struct{})}, nil
}

// NewSession builds a REPL over a tenant session of hv instead of a
// private runtime: the hypervisor owns device and toolchain, the
// session's program output is pointed at out, and every eval and tick
// goes through the session so fabric residency is scheduled fairly
// against the other tenants. The standard prelude is evaluated.
// Closing the REPL closes the session.
func NewSession(hv *hyper.Hypervisor, out io.Writer, opts ...hyper.SessionOption) (*REPL, error) {
	out = &lockedWriter{w: out}
	opts = append(opts, hyper.WithView(&view{out: out}))
	sess, err := hv.NewSession(opts...)
	if err != nil {
		return nil, err
	}
	if err := sess.Eval(runtime.DefaultPrelude); err != nil {
		sess.Close()
		return nil, err
	}
	return &REPL{rt: sess.Runtime(), out: out, hv: hv, sess: sess, stop: make(chan struct{})}, nil
}

// Session returns the tenant session behind a NewSession REPL (nil for
// single-tenant REPLs).
func (r *REPL) Session() *hyper.Session { return r.sess }

// NewRestored builds a REPL around a restored snapshot instead of the
// standard prelude: the migrated program continues under interactive
// control (the -restore flag of cmd/cascade).
func NewRestored(opts runtime.Options, snap *runtime.Snapshot, out io.Writer) (*REPL, error) {
	out = &lockedWriter{w: out}
	opts.View = &view{out: out}
	rt := runtime.New(opts)
	if err := rt.Restore(snap); err != nil {
		return nil, err
	}
	return &REPL{rt: rt, out: out, stop: make(chan struct{})}, nil
}

// Open builds a REPL over a crash-safe persistent runtime (the
// -checkpoint-dir flag of cmd/cascade): opts.Persist must name a
// directory, and whatever state a previous process left there is
// recovered before the prompt appears. On a fresh directory the
// standard prelude is evaluated as usual; on recovery the program is
// already mid-execution and resumes where the journal left off.
func Open(opts runtime.Options, out io.Writer) (*REPL, *runtime.RecoveryInfo, error) {
	out = &lockedWriter{w: out}
	opts.View = &view{out: out}
	rt, info, err := runtime.Open(opts)
	if err != nil {
		return nil, nil, err
	}
	if !info.Recovered {
		if err := rt.Eval(runtime.DefaultPrelude); err != nil {
			rt.ClosePersistence()
			return nil, nil, err
		}
	}
	return &REPL{rt: rt, out: out, stop: make(chan struct{})}, info, nil
}

// Runtime exposes the underlying runtime (tests, commands).
func (r *REPL) Runtime() *runtime.Runtime { return r.rt }

// eval routes source through the session when one is attached (so a
// closed session reports ErrClosed instead of mutating a dead tenant).
// Callers hold r.mu.
func (r *REPL) eval(ctx context.Context, src string) error {
	if r.sess != nil {
		return r.sess.EvalCtx(ctx, src)
	}
	return r.rt.EvalCtx(ctx, src)
}

// runTicks routes stepping through the session's residency scheduler
// when one is attached. Callers hold r.mu.
func (r *REPL) runTicks(ctx context.Context, n uint64) error {
	if r.sess != nil {
		return r.sess.RunTicksCtx(ctx, n)
	}
	return r.rt.RunTicksCtx(ctx, n)
}

// start launches the background scheduler: the program keeps running
// while the user types.
func (r *REPL) start() {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for {
			select {
			case <-r.stop:
				return
			default:
			}
			r.mu.Lock()
			if !r.rt.Finished() {
				r.runTicks(context.Background(), 1)
			}
			fin := r.rt.Finished()
			r.mu.Unlock()
			if fin {
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
}

// Close stops the background scheduler and, for a NewSession REPL,
// closes the tenant session (releasing its fabric region).
func (r *REPL) Close() {
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	r.wg.Wait()
	if r.sess != nil {
		r.sess.Close()
	}
}

// InputComplete reports whether src forms a complete eval unit: balanced
// module/begin/case nesting and brackets, ending at a statement boundary.
func InputComplete(src string) bool {
	toks, _ := verilog.LexAll(src)
	depth, paren := 0, 0
	last := verilog.EOF
	for _, t := range toks {
		switch t.Kind {
		case verilog.KwModule, verilog.KwBegin, verilog.KwCase, verilog.KwCasez:
			depth++
		case verilog.KwEndmodule, verilog.KwEnd, verilog.KwEndcase:
			depth--
		case verilog.LParen, verilog.LBrack, verilog.LBrace:
			paren++
		case verilog.RParen, verilog.RBrack, verilog.RBrace:
			paren--
		}
		if t.Kind != verilog.EOF {
			last = t.Kind
		}
	}
	if depth > 0 || paren > 0 {
		return false
	}
	switch last {
	case verilog.Semi, verilog.KwEndmodule, verilog.KwEnd, verilog.KwEndcase, verilog.EOF:
		return true
	}
	return false
}

// Interact runs the interactive loop until EOF or :quit.
func (r *REPL) Interact(in io.Reader) error {
	fmt.Fprintln(r.out, "Cascade-Go — a JIT compiler for Verilog. Type :help for commands.")
	r.start()
	defer r.Close()
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var pending strings.Builder
	prompt := func() {
		if pending.Len() == 0 {
			fmt.Fprint(r.out, "CASCADE >>> ")
		} else {
			fmt.Fprint(r.out, "        ... ")
		}
	}
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if pending.Len() == 0 && strings.HasPrefix(trimmed, ":") {
			if quit := r.command(trimmed); quit {
				return nil
			}
			prompt()
			continue
		}
		pending.WriteString(line)
		pending.WriteString("\n")
		if InputComplete(pending.String()) && strings.TrimSpace(pending.String()) != "" {
			src := pending.String()
			pending.Reset()
			r.mu.Lock()
			err := r.eval(context.Background(), src)
			r.mu.Unlock()
			if err != nil {
				fmt.Fprintf(r.out, "error: %v\n", err)
			}
		}
		prompt()
	}
	return scanner.Err()
}

// command handles a :directive; it reports whether the REPL should exit.
func (r *REPL) command(line string) bool {
	fields := strings.Fields(line)
	switch fields[0] {
	case ":quit", ":q", ":exit":
		return true
	case ":help", ":h":
		fmt.Fprint(r.out, `commands:
  :help            this text
  :quit            exit
  :phase           current JIT phase and virtual time
  :stats           scheduler and device statistics
  :health          remote-engine supervision: breaker state, probes, failovers
  :engines         per-engine location, transport, and traffic counters
  :pad <value>     press/release buttons (bit i = button i)
  :leds            show the LED bank
  :run <ticks>     run N clock ticks synchronously
  :sessions        list the hypervisor's live tenant sessions
  :program         echo the program eval'd so far
  :save <path>     write a migratable snapshot of the running program
  :load <path>     replace the running program with a saved snapshot
  :trace [n]       show the last n lifecycle events (default 20)
  :metrics         dump the metrics registry in Prometheus text format
`)
	case ":phase":
		r.mu.Lock()
		fmt.Fprintf(r.out, "phase=%v vtime=%.3fs ticks=%d area=%d LEs\n",
			r.rt.Phase(), float64(r.rt.VirtualNow())/float64(vclock.S), r.rt.Ticks(), r.rt.AreaLEs())
		r.mu.Unlock()
	case ":stats":
		r.mu.Lock()
		st := r.rt.Stats()
		var in hyper.SessionInfo
		if r.sess != nil {
			in = r.sess.Info() // reads the runtime's phase and ticks: under r.mu, like Stats
		}
		r.mu.Unlock()
		fmt.Fprintln(r.out, st.Summary())
		for _, e := range st.Engines {
			fmt.Fprintf(r.out, "  engine %-12s %s\n", e.Path, e.Location)
		}
		if r.sess != nil {
			fmt.Fprintf(r.out, "  session %s region=%dLEs share=%s resident=%v quanta=%d (of %d tenants)\n",
				in.ID, in.QuotaLEs, shareLabel(in.CompileShare), in.Resident, in.Quanta, r.hv.SessionCount())
		}
	case ":health":
		r.mu.Lock()
		st := r.rt.Stats()
		r.mu.Unlock()
		sup := st.Supervise
		if !sup.Enabled {
			fmt.Fprintln(r.out, "supervision off (enable with -supervise; engines fail hard after the retry budget)")
			break
		}
		fmt.Fprintf(r.out, "breaker=%s probes=%d failures=%d trips=%d failovers=%d rehosts=%d\n",
			sup.State, sup.Probes, sup.ProbeFailures, sup.Trips, sup.Failovers, sup.Rehosts)
		if st.Remote != "" {
			fmt.Fprintf(r.out, "daemon %s: roundtrips=%d drops=%d retries=%d\n",
				st.Remote, st.Xport.RoundTrips, st.Xport.Drops, st.Xport.Retries)
		}
		for _, e := range st.Engines {
			if e.Transport == "tcp" {
				fmt.Fprintf(r.out, "  engine %-12s remote (%s)\n", e.Path, e.Location)
			}
		}
	case ":sessions":
		if r.hv == nil {
			fmt.Fprintln(r.out, "not serving a hypervisor (single-tenant runtime)")
			break
		}
		r.mu.Lock() // SessionInfos reads this session's runtime counters
		infos := r.hv.SessionInfos()
		r.mu.Unlock()
		if len(infos) == 0 {
			fmt.Fprintln(r.out, "no live sessions")
			break
		}
		fmt.Fprintf(r.out, "%-10s %-20s %10s %6s %9s %7s %8s\n",
			"ID", "PHASE", "REGION", "SHARE", "RESIDENT", "QUANTA", "TICKS")
		for _, in := range infos {
			resident := "-"
			if in.Resident {
				resident = "yes"
			}
			fmt.Fprintf(r.out, "%-10s %-20s %8dLE %6s %9s %7d %8d\n",
				in.ID, in.Phase, in.QuotaLEs, shareLabel(in.CompileShare),
				resident, in.Quanta, in.Ticks)
		}
	case ":engines":
		r.mu.Lock()
		st := r.rt.Stats()
		r.mu.Unlock()
		if st.Remote != "" {
			fmt.Fprintf(r.out, "remote daemon: %s\n", st.Remote)
		}
		if len(st.Engines) == 0 {
			fmt.Fprintln(r.out, "no engines scheduled")
			break
		}
		fmt.Fprintf(r.out, "%-16s %-10s %-12s %-9s %10s %10s %10s %6s %7s\n",
			"PATH", "LOCATION", "TIER", "TRANSPORT", "ROUNDTRIPS", "OUT", "IN", "DROPS", "RETRIES")
		for _, e := range st.Engines {
			tier := e.Tier
			if tier == "" {
				tier = "-"
			}
			fmt.Fprintf(r.out, "%-16s %-10s %-12s %-9s %10d %9dB %9dB %6d %7d\n",
				e.Path, e.Location, tier, e.Transport,
				e.Xport.RoundTrips, e.Xport.BytesOut, e.Xport.BytesIn,
				e.Xport.Drops, e.Xport.Retries)
		}
	case ":pad":
		if len(fields) < 2 {
			fmt.Fprintln(r.out, "usage: :pad <value>")
			break
		}
		var v uint64
		fmt.Sscanf(fields[1], "%v", &v)
		r.rt.World().PressPad("main.pad", v)
		fmt.Fprintf(r.out, "pad=%d\n", v)
	case ":leds":
		v := r.rt.World().Led("main.led")
		var lights strings.Builder
		for i := 7; i >= 0; i-- {
			if v>>uint(i)&1 == 1 {
				lights.WriteString("●")
			} else {
				lights.WriteString("○")
			}
		}
		fmt.Fprintf(r.out, "led=%08b %s\n", v, lights.String())
	case ":save":
		if len(fields) < 2 {
			fmt.Fprintln(r.out, "usage: :save <path>")
			break
		}
		r.mu.Lock()
		blob := runtime.EncodeSnapshot(r.rt.Snapshot())
		r.mu.Unlock()
		// Atomic write: a crash mid-save leaves either the previous
		// file or the new one, never a torn snapshot.
		if err := persist.WriteFileAtomic(fields[1], []byte(blob), 0o644); err != nil {
			fmt.Fprintf(r.out, "save failed: %v\n", err)
			break
		}
		fmt.Fprintf(r.out, "snapshot written to %s (%d bytes)\n", fields[1], len(blob))
	case ":load":
		if len(fields) < 2 {
			fmt.Fprintln(r.out, "usage: :load <path>")
			break
		}
		blob, err := os.ReadFile(fields[1])
		if err != nil {
			fmt.Fprintf(r.out, "load failed: %v\n", err)
			break
		}
		snap, err := runtime.DecodeSnapshot(string(blob))
		if err != nil {
			fmt.Fprintf(r.out, "load failed: %v\n", err)
			break
		}
		r.mu.Lock()
		err = r.rt.Restore(snap)
		if err == nil && r.rt.PersistDir() != "" {
			// The journal describes the replaced program; cut a fresh
			// checkpoint so a crash recovers the loaded one.
			if cerr := r.rt.Checkpoint(); cerr != nil {
				fmt.Fprintf(r.out, "warning: checkpoint after load failed: %v\n", cerr)
			}
		}
		ticks, phase := r.rt.Ticks(), r.rt.Phase()
		r.mu.Unlock()
		if err != nil {
			// Restore validates before mutating: the running program
			// is untouched and the session continues.
			fmt.Fprintf(r.out, "load failed (program unchanged): %v\n", err)
			break
		}
		fmt.Fprintf(r.out, "snapshot loaded from %s: ticks=%d phase=%v\n", fields[1], ticks, phase)
	case ":trace":
		o := r.rt.Observer()
		if !o.Enabled() {
			fmt.Fprintln(r.out, "observability is off (start with -observe, or WithObservability)")
			break
		}
		n := 20
		if len(fields) > 1 {
			fmt.Sscanf(fields[1], "%d", &n)
		}
		r.mu.Lock()
		evs := o.Trace(n)
		r.mu.Unlock()
		if len(evs) == 0 {
			fmt.Fprintln(r.out, "no events recorded yet")
			break
		}
		for _, ev := range evs {
			fmt.Fprintln(r.out, ev.String())
		}
	case ":metrics":
		o := r.rt.Observer()
		if !o.Enabled() {
			fmt.Fprintln(r.out, "observability is off (start with -observe, or WithObservability)")
			break
		}
		fmt.Fprint(r.out, o.MetricsText())
	case ":program":
		r.mu.Lock()
		fmt.Fprint(r.out, r.rt.ProgramSource())
		r.mu.Unlock()
	case ":run":
		n := uint64(1)
		if len(fields) > 1 {
			fmt.Sscanf(fields[1], "%d", &n)
		}
		r.mu.Lock()
		r.runTicks(context.Background(), n)
		ticks := r.rt.Ticks()
		r.mu.Unlock()
		fmt.Fprintf(r.out, "ticks=%d\n", ticks)
	default:
		fmt.Fprintf(r.out, "unknown command %s (:help)\n", fields[0])
	}
	return false
}

// Batch evaluates a whole source file and runs until $finish or the tick
// budget is exhausted (paper: "Cascade can also be run in batch mode with
// input provided through a file. The process is the same.").
func (r *REPL) Batch(src string, maxTicks uint64) error {
	return r.BatchCtx(context.Background(), src, maxTicks)
}

// BatchCtx is Batch with cancellation: a cancelled context stops the run
// between ticks and aborts any in-flight background compilations.
func (r *REPL) BatchCtx(ctx context.Context, src string, maxTicks uint64) error {
	if err := r.eval(ctx, src); err != nil {
		return err
	}
	return r.runBudget(ctx, maxTicks)
}

// Resume continues a recovered program until $finish or the tick budget
// is exhausted, without re-evaluating anything: the recovered runtime is
// already mid-execution (batch mode restarted over a persistence
// directory).
func (r *REPL) Resume(maxTicks uint64) error {
	return r.runBudget(context.Background(), maxTicks)
}

func (r *REPL) runBudget(ctx context.Context, maxTicks uint64) error {
	start := r.rt.Ticks()
	for !r.rt.Finished() && r.rt.Ticks()-start < maxTicks {
		if err := r.runTicks(ctx, 1); err != nil {
			return err
		}
	}
	return nil
}

// shareLabel renders a compile-worker fair share ("pool" for the
// unbounded default).
func shareLabel(n int) string {
	if n <= 0 {
		return "pool"
	}
	return fmt.Sprintf("%d", n)
}
