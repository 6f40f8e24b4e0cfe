// Command cascade is the Cascade-Go REPL: a JIT compiler and runtime for
// Verilog (paper §3.1). Run it with no arguments for an interactive
// session against the default virtual board (a clock, four buttons, and
// eight LEDs), or with -batch to execute a file.
//
// Usage:
//
//	cascade                     # interactive REPL
//	cascade -batch prog.v       # batch mode: eval file, run to $finish
//	cascade -batch prog.v -ticks 100000
//	cascade -no-jit             # stay in software (simulator only)
//	cascade -native             # native mode (§4.5)
//	cascade -compile-scale 600  # speed up the virtual vendor toolchain
//	cascade -checkpoint-dir d   # crash-safe: checkpoint + journal in d,
//	                            # restarting over d resumes mid-run
//	cascade -cache-dir d        # persist compiled bitstreams across runs
//	cascade -remote-engine addr # host user engines on a cascade-engined
//	                            # daemon at addr (see cmd/cascade-engined)
//	cascade -remote-engine addr -session-quota 25000 -session-share 2
//	                            # open a private daemon session: a 25K-LE
//	                            # fabric region and 2 fair-share compile
//	                            # workers, isolated from other clients
//	cascade -remote-engine addr -supervise
//	                            # self-healing: probe the daemon, fail
//	                            # over to local engines when it dies,
//	                            # re-host when it comes back (:health)
//	cascade -observe 127.0.0.1:9926  # serve /metrics, /trace, and
//	                            # /debug/pprof; enables :trace/:metrics
//	cascade -compile-farm 3     # shard compiles across 3 in-process farm
//	                            # workers (replicated bitstream cache)
//	cascade -compile-farm-addrs 127.0.0.1:9925,127.0.0.1:9927
//	                            # shard compiles onto remote cascade-engined
//	                            # -compile-worker daemons instead
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"cascade/internal/fault"
	"cascade/internal/fpga"
	"cascade/internal/obsv"
	"cascade/internal/repl"
	"cascade/internal/runtime"
	"cascade/internal/supervise"
	"cascade/internal/toolchain"
	"cascade/internal/transport"
)

func main() {
	batch := flag.String("batch", "", "evaluate a Verilog file instead of reading stdin")
	restore := flag.String("restore", "", "restore a snapshot written by :save and continue it")
	ticks := flag.Uint64("ticks", 1_000_000, "batch mode: maximum clock ticks to run")
	noJIT := flag.Bool("no-jit", false, "disable the JIT (software simulation only)")
	native := flag.Bool("native", false, "native mode: compile exactly as written (§4.5)")
	nativeTier := flag.Bool("native-tier", false, "add the native-Go JIT rung: closure-threaded code within virtual ms, fabric later")
	scale := flag.Float64("compile-scale", 600, "divide virtual compile latency (1 = paper-faithful)")
	ckptDir := flag.String("checkpoint-dir", "", "crash-safe persistence directory (checkpoints + journal); restarting over it resumes")
	ckptEvery := flag.Uint64("checkpoint-every", 0, "checkpoint cadence in steps (0 = default)")
	cacheDir := flag.String("cache-dir", "", "persist compiled bitstreams here across processes")
	remote := flag.String("remote-engine", "", "host user engines on a cascade-engined daemon at this address")
	sessQuota := flag.Int("session-quota", 0, "with -remote-engine: open a private daemon session with a fabric region of this many LEs (0 = sessionless shared fabric)")
	sessShare := flag.Int("session-share", 0, "with -remote-engine -session-quota: bound the session to this many fair-share compile workers (0 = global pool)")
	supervised := flag.Bool("supervise", false, "with -remote-engine: self-healing supervision — liveness probes, circuit-broken failover to local engines, re-host on daemon recovery")
	faultNet := flag.Float64("fault-net", 0, "per-attempt probability an engine-protocol round-trip is dropped and retried (0 = no injected faults; drops never change program output)")
	faultSeed := flag.Uint64("fault-seed", 1, "deterministic fault-schedule seed (with -fault-net)")
	observe := flag.String("observe", "", "serve /metrics, /trace, and /debug/pprof on this address (e.g. 127.0.0.1:0); also enables :trace and :metrics")
	farmWorkers := flag.Int("compile-farm", 0, "shard compile flows across this many in-process farm workers (0 = local backend)")
	farmAddrs := flag.String("compile-farm-addrs", "", "comma-separated cascade-engined -compile-worker addresses to shard compile flows onto")
	flag.Parse()

	dev := fpga.NewCycloneV()
	tco := toolchain.DefaultOptions()
	tco.Scale = *scale
	tco.CacheDir = *cacheDir
	opts := runtime.Options{
		Device:    dev,
		Toolchain: toolchain.New(dev, tco),
		Features: runtime.Features{
			DisableJIT: *noJIT,
			Native:     *native,
			NativeTier: *nativeTier,
		},
	}
	if *remote != "" {
		// SessionName stays empty: the daemon assigns a unique tenant
		// name, so several CLIs can open sessions against one daemon.
		opts.Remote = &runtime.RemoteOptions{
			Addr:            *remote,
			SessionQuotaLEs: *sessQuota,
			SessionShare:    *sessShare,
		}
	} else if *sessQuota != 0 || *sessShare != 0 {
		fmt.Fprintln(os.Stderr, "cascade: -session-quota/-session-share require -remote-engine")
		os.Exit(1)
	}
	if *supervised {
		if *remote == "" {
			fmt.Fprintln(os.Stderr, "cascade: -supervise requires -remote-engine")
			os.Exit(1)
		}
		opts.Supervise = &supervise.Options{}
	}
	if *observe != "" {
		// runtime.New starts the endpoint and announces the bound
		// address through the view.
		opts.Observer = obsv.New(obsv.Options{Addr: *observe})
	}
	if *farmAddrs != "" {
		var addrs []string
		for _, a := range strings.Split(*farmAddrs, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		links, err := transport.DialFarm(addrs, transport.TCPOptions{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "cascade: %v\n", err)
			os.Exit(1)
		}
		opts.Farm = &toolchain.FarmOptions{Links: links}
		fmt.Printf("[cascade] compile farm: %d remote worker(s)\n", len(links))
	} else if *farmWorkers > 0 {
		opts.Farm = &toolchain.FarmOptions{Workers: *farmWorkers}
	}
	if *faultNet > 0 {
		// Cap injected drops per transport site below the default retry
		// budget (2), so every drop is absorbed and observables match
		// the fault-free run (DESIGN.md key invariant 11).
		opts.Injector = fault.New(fault.Config{
			Seed:         *faultSeed,
			NetDrop:      *faultNet,
			MaxNetFaults: 2,
		})
	}
	var r *repl.REPL
	var info *runtime.RecoveryInfo
	var err error
	if *ckptDir != "" {
		opts.Persist = &runtime.PersistOptions{
			Dir:        *ckptDir,
			EverySteps: *ckptEvery,
		}
		r, info, err = repl.Open(opts, os.Stdout)
		if err == nil && info.Recovered {
			fmt.Printf("[cascade] recovered: ticks=%d steps=%d replayed=%d records (checkpoint seq %d)\n",
				r.Runtime().Ticks(), info.ResumedSteps, info.ReplayedRecords, info.CheckpointSeq)
		}
	} else if *restore != "" {
		blob, rerr := os.ReadFile(*restore)
		if rerr != nil {
			fmt.Fprintf(os.Stderr, "cascade: %v\n", rerr)
			os.Exit(1)
		}
		snap, rerr := runtime.DecodeSnapshot(string(blob))
		if rerr != nil {
			fmt.Fprintf(os.Stderr, "cascade: %v\n", rerr)
			os.Exit(1)
		}
		r, err = repl.NewRestored(opts, snap, os.Stdout)
	} else {
		r, err = repl.New(opts, os.Stdout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "cascade: %v\n", err)
		os.Exit(1)
	}
	// A daemon session keeps its fabric region until it is closed: close
	// it (and the connection) on the way out, or the daemon runs out of
	// room for later sessions.
	defer func() {
		if err := r.Runtime().CloseRemote(); err != nil {
			fmt.Fprintf(os.Stderr, "cascade: closing the remote engine connection: %v\n", err)
		}
	}()
	if *batch != "" {
		if info != nil && info.Recovered {
			// The program (and its progress) came back from the
			// checkpoint + journal: don't re-eval the file, just spend
			// whatever remains of the total tick budget.
			remaining := uint64(0)
			if done := r.Runtime().Ticks(); done < *ticks {
				remaining = *ticks - done
			}
			if err := r.Resume(remaining); err != nil {
				fmt.Fprintf(os.Stderr, "cascade: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("[cascade] done: ticks=%d\n", r.Runtime().Ticks())
			return
		}
		src, err := os.ReadFile(*batch)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cascade: %v\n", err)
			os.Exit(1)
		}
		if err := r.Batch(string(src), *ticks); err != nil {
			fmt.Fprintf(os.Stderr, "cascade: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("[cascade] done: ticks=%d\n", r.Runtime().Ticks())
		return
	}
	if err := r.Interact(os.Stdin); err != nil {
		fmt.Fprintf(os.Stderr, "cascade: %v\n", err)
		os.Exit(1)
	}
}
