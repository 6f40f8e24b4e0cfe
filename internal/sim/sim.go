// Package sim implements the Verilog reference simulation semantics
// (paper §2.5, Figure 2) over an elaborated subprogram: an event-driven
// interpreter with activation queues for combinational logic and an update
// queue for non-blocking assignments.
//
// The simulator computes data dependencies at elaboration load time and
// re-evaluates processes lazily, only when something they are sensitive to
// changes (paper §5.1). It is the execution core of Cascade's software
// engines and, run standalone without the JIT, the "iVerilog" baseline of
// the evaluation. Its state crosses engine boundaries as a word image in
// the Flat's layout (GetState, SetState).
//
// Every unit (continuous assignment or always-block body) starts on the
// tree walk, elab.Eval under exec, which is the reference semantics. A
// unit that keeps running is compiled at its 8th execution, the paper's
// tiering one level down: into closures over this simulator's own
// vectors (elab.Compile for expressions), run from then on instead of the
// walk, with the same writes, activations and counters. A simulator that
// runs only briefly compiles nothing.
package sim

import (
	"fmt"
	mathbits "math/bits"
	"strings"

	"cascade/internal/bits"
	"cascade/internal/elab"
)

// Options configures simulator hooks. All are optional.
type Options struct {
	// Display receives formatted $display/$write output (without an
	// implicit newline; $display appends one itself).
	Display func(text string)
	// Finish is called when the program executes $finish.
	Finish func(code int)
	// Now supplies the virtual time for $time.
	Now func() uint64
	// Eager disables the lazy dependency-driven activation of paper
	// §5.1: every combinational process re-evaluates on every pass, the
	// strategy of a naive event-driven interpreter. Used as the
	// "iVerilog" baseline and as the laziness ablation.
	Eager bool
	// Shuffle, when non-nil, randomizes the order in which activated
	// events are performed within a batch. The Verilog reference
	// scheduler (paper Figure 2) performs active events "in any order";
	// equivalence tests use this to check that well-formed programs
	// reach the same observable states under every ordering.
	Shuffle func(n int) []int
}

// Simulator executes one elaborated subprogram.
type Simulator struct {
	flat *elab.Flat
	opts Options

	// Values by Var.Index: scalars, and memory words. Compiled units hold
	// these vectors, so every writer copies into them and none replaces
	// one.
	vals   []*bits.Vector
	arrays [][]*bits.Vector

	// Watchers: a change of variable i may activate the units
	// watch[watchAt[i]:watchAt[i+1]], each a unit index over its kind.
	watch   []uint32
	watchAt []int32

	// Units are the continuous assignments, then the processes, in Flat
	// order. active is the set of pending ones, a bit a unit; runs counts
	// each unit's executions until it is hot, and code holds the hot ones
	// compiled (allocated at the first compile).
	active    []uint64
	anyActive bool
	runs      []uint8
	code      []func()
	threshold int

	// scratch lends Eval its intermediates until the next process, assign
	// or EndStep; queued owns the values of pending updates until Update.
	scratch, queued arena
	updates         []pendingUpdate
	monitors        []*monitorState

	finished bool
	// Counters exposed for profiling and the performance model.
	EvalOps   uint64 // process/assign executions
	WriteOps  uint64 // variable writes that changed a value
	UpdateOps uint64 // non-blocking commits
}

type pendingUpdate struct {
	v      *elab.Var
	word   int // -1 for scalar
	hasRng bool
	hi, lo int
	val    *bits.Vector
}

// arena is a bump allocator of vectors: headers and words are carved from
// slabs that rewind keeps, so a settled simulator allocates nothing. A slab
// that fills is left to the vectors lent from it (they never move) and a
// larger one replaces it, until the slabs fit the largest process.
type arena struct {
	vecs  []bits.Vector
	words []uint64
}

// poisonRewound makes rewind overwrite the words it takes back, so a vector
// used past its boundary reads as garbage. Set by tests (export_test.go).
var poisonRewound bool

func (a *arena) tmp(width int) *bits.Vector {
	n := bits.WordsFor(width)
	if len(a.vecs) == cap(a.vecs) {
		a.vecs = make([]bits.Vector, 0, 2*cap(a.vecs)+16)
	}
	if len(a.words)+n > cap(a.words) {
		a.words = make([]uint64, 0, 2*cap(a.words)+n+16)
	}
	ws := a.words[len(a.words) : len(a.words)+n]
	clear(ws)
	a.words = a.words[:len(a.words)+n]
	a.vecs = append(a.vecs, bits.Wrap(width, ws))
	return &a.vecs[len(a.vecs)-1]
}

func (a *arena) rewind() {
	if poisonRewound {
		for i := range a.words {
			a.words[i] = 0xdeadbeefdeadbeef
		}
	}
	a.vecs, a.words = a.vecs[:0], a.words[:0]
}

type monitorState struct {
	task *elab.SysTask
	last []string
}

// New builds a simulator for f. Initializers are applied and initial
// blocks run; combinational logic is activated so outputs settle on the
// first Evaluate call.
func New(f *elab.Flat, opts Options) *Simulator {
	units := len(f.Assigns) + len(f.Procs)
	s := &Simulator{
		flat:      f,
		opts:      opts,
		vals:      make([]*bits.Vector, len(f.Vars)),
		arrays:    make([][]*bits.Vector, len(f.Vars)),
		active:    make([]uint64, (units+63)/64),
		runs:      make([]uint8, units),
		threshold: compileThreshold,
	}
	for _, v := range f.Vars {
		if v.IsArray() {
			words := make([]*bits.Vector, v.ArrayLen)
			for i := range words {
				words[i] = bits.New(v.Width)
			}
			s.arrays[v.Index] = words
			s.vals[v.Index] = bits.New(v.Width) // never written: ArrayWord's zero
			continue
		}
		if v.Init != nil {
			s.vals[v.Index] = v.Init.Clone()
		} else {
			s.vals[v.Index] = bits.New(v.Width)
		}
	}
	s.buildWatchers()
	s.activateCombinational()

	// Initial blocks execute once at time zero.
	for _, st := range f.Initials {
		s.scratch.rewind()
		s.exec(st)
	}
	return s
}

// Watcher kinds: what a change of the watched variable must be to
// activate the unit.
const (
	watchAny  = iota // any change: an assign, or a process's level event
	watchPos         // its bit 0 rose
	watchNeg         // its bit 0 fell
	watchKind = 3    // the bits of an entry that hold its kind
)

// buildWatchers lists, for each variable, the units its change may
// activate: an assign on what it reads (memory and bit indices
// included), an @* process on its read set, any other process with a
// level event on its level events only, and an edge-triggered process on
// its edges.
func (s *Simulator) buildWatchers() {
	f, na := s.flat, len(s.flat.Assigns)
	at := make([]int32, len(f.Vars)+1)
	seen := make([]int32, len(f.Vars)) // the last assign that read each variable, plus one
	each := func(add func(v *elab.Var, w uint32)) {
		clear(seen)
		for i, a := range f.Assigns {
			read := func(e elab.Expr) {
				var v *elab.Var
				switch t := e.(type) {
				case *elab.VarRef:
					v = t.V
				case *elab.ArrayRef:
					v = t.V
				}
				if v != nil && seen[v.Index] != int32(i+1) {
					seen[v.Index] = int32(i + 1)
					add(v, uint32(i)<<2|watchAny)
				}
			}
			elab.WalkExpr(a.RHS, read)
			for _, lv := range a.LHS {
				elab.WalkExpr(lv.ArrIndex, read)
				elab.WalkExpr(lv.DynBit, read)
			}
		}
		for i, p := range f.Procs {
			u := uint32(na+i) << 2
			switch {
			case p.Star:
				for _, v := range p.Reads {
					add(v, u|watchAny)
				}
			case hasLevel(p):
				for _, e := range p.Edges {
					if e.Kind == elab.Level {
						add(e.Var, u|watchAny)
					}
				}
			default:
				for _, e := range p.Edges {
					if e.Kind == elab.Pos {
						add(e.Var, u|watchPos)
					} else {
						add(e.Var, u|watchNeg)
					}
				}
			}
		}
	}
	each(func(v *elab.Var, _ uint32) { at[v.Index+1]++ })
	for i := 1; i < len(at); i++ {
		at[i] += at[i-1]
	}
	s.watch = make([]uint32, at[len(f.Vars)])
	each(func(v *elab.Var, w uint32) { s.watch[at[v.Index]] = w; at[v.Index]++ })
	copy(at[1:], at) // each entry now holds its successor's start
	at[0] = 0
	s.watchAt = at
}

func hasLevel(p *elab.Proc) bool {
	for _, e := range p.Edges {
		if e.Kind == elab.Level {
			return true
		}
	}
	return false
}

// Flat returns the subprogram this simulator executes.
func (s *Simulator) Flat() *elab.Flat { return s.flat }

// Finished reports whether $finish has executed.
func (s *Simulator) Finished() bool { return s.finished }

// Env interface for elab.Eval.

// VarValue implements elab.Env. The result is the live value, lent: it
// changes as the simulator runs and must not be mutated.
func (s *Simulator) VarValue(v *elab.Var) *bits.Vector { return s.vals[v.Index] }

// ArrayWord implements elab.Env. Every out-of-range read of a memory
// shares one zero: the scalar slot of its variable, which nothing writes.
func (s *Simulator) ArrayWord(v *elab.Var, i int) *bits.Vector {
	w := s.arrays[v.Index]
	if i < 0 || i >= len(w) {
		return s.vals[v.Index]
	}
	return w[i]
}

// Tmp implements elab.Env: lent until the next process, assign or EndStep.
func (s *Simulator) Tmp(width int) *bits.Vector { return s.scratch.tmp(width) }

// Now implements elab.Env.
func (s *Simulator) Now() uint64 {
	if s.opts.Now != nil {
		return s.opts.Now()
	}
	return 0
}

// Value returns the current value of a named scalar variable (nil if
// unknown).
func (s *Simulator) Value(name string) *bits.Vector {
	v := s.flat.VarNamed(name)
	if v == nil || v.IsArray() {
		return nil
	}
	return s.vals[v.Index].Clone()
}

// SetInput drives an input port (the engine ABI read method's core).
func (s *Simulator) SetInput(v *elab.Var, val *bits.Vector) {
	s.applyWrite(v, -1, false, 0, 0, val)
}

// SetInputByName drives an input port by name.
func (s *Simulator) SetInputByName(name string, val *bits.Vector) bool {
	v := s.flat.VarNamed(name)
	if v == nil {
		return false
	}
	s.SetInput(v, val)
	return true
}

// fire activates everything sensitive to a change on v.
func (s *Simulator) fire(v *elab.Var, oldLSB, newLSB uint) {
	for _, w := range s.watch[s.watchAt[v.Index]:s.watchAt[v.Index+1]] {
		switch w & watchKind {
		case watchPos:
			if oldLSB != 0 || newLSB != 1 {
				continue
			}
		case watchNeg:
			if oldLSB != 1 || newLSB != 0 {
				continue
			}
		}
		s.activate(int(w >> 2))
	}
}

// HasActive reports whether any evaluation events are pending
// (there_are_evals in the engine ABI).
func (s *Simulator) HasActive() bool { return s.anyActive }

// Evaluate runs activated combinational logic and triggered processes to
// a fixed point (the EvalAll batch of the Cascade scheduler). Non-blocking
// assignments encountered along the way are queued, not applied.
func (s *Simulator) Evaluate() {
	if s.opts.Eager && s.anyActive {
		s.activateCombinational()
	}
	na := len(s.flat.Assigns)
	for s.anyActive {
		s.anyActive = false
		s.runPending(0, na)
		s.runPending(na, len(s.runs))
	}
}

// activate marks unit u pending.
func (s *Simulator) activate(u int) {
	s.active[u>>6] |= 1 << (u & 63)
	s.anyActive = true
}

// runPending runs the pending units of [lo, hi) in one batch: in index
// order, or in the order Options.Shuffle gives. A unit activated during
// the batch runs in it if the batch has not passed it yet.
func (s *Simulator) runPending(lo, hi int) {
	if s.opts.Shuffle != nil {
		for _, i := range s.opts.Shuffle(hi - lo) {
			s.runIfActive(lo + i)
		}
		return
	}
	for u := lo; u < hi; u++ {
		w := s.active[u>>6] >> (u & 63) // read again after every run
		if w == 0 {
			u |= 63 // on to the next word
			continue
		}
		if u += mathbits.TrailingZeros64(w); u < hi {
			s.runIfActive(u)
		}
	}
}

// runIfActive executes unit u if it is pending.
func (s *Simulator) runIfActive(u int) {
	if s.active[u>>6]&(1<<(u&63)) == 0 {
		return
	}
	s.active[u>>6] &^= 1 << (u & 63)
	s.EvalOps++
	s.scratch.rewind()
	if s.code != nil && s.code[u] != nil {
		s.code[u]()
		return
	}
	if s.runs[u]++; int(s.runs[u]) >= s.threshold {
		s.compile(u)()
		return
	}
	if na := len(s.flat.Assigns); u < na {
		a := s.flat.Assigns[u]
		s.writeTargets(a.LHS, elab.Eval(a.RHS, s), true)
	} else {
		s.exec(s.flat.Procs[u-na].Body)
	}
}

// HasUpdates reports whether non-blocking updates are queued
// (there_are_updates in the engine ABI).
func (s *Simulator) HasUpdates() bool { return len(s.updates) > 0 }

// Update commits all queued non-blocking assignments simultaneously
// (the update batch of the scheduler). Evaluation events triggered by the
// commits become pending but are not run.
func (s *Simulator) Update() {
	for _, u := range s.updates { // a commit activates, it never queues
		s.UpdateOps++
		s.applyWrite(u.v, u.word, u.hasRng, u.hi, u.lo, u.val)
	}
	s.updates = s.updates[:0]
	s.queued.rewind()
}

// EndStep runs end-of-time-step work: $monitor re-display.
func (s *Simulator) EndStep() {
	s.scratch.rewind()
	for _, m := range s.monitors {
		cur := s.formatTask(m.task)
		if len(m.last) == 0 || m.last[0] != cur {
			m.last = []string{cur}
			s.display(cur + "\n")
		}
	}
}

// writeTargets distributes val across (possibly concatenated) lvalues,
// MSB first. blocking selects immediate write vs update queue. A lone
// lvalue takes val as it is (every write truncates or extends to its
// target); several take part selects of a scratch copy, since val may be
// live state that the first write changes.
func (s *Simulator) writeTargets(lhs []elab.LValue, val *bits.Vector, blocking bool) {
	if len(lhs) == 1 {
		s.writeLValue(lhs[0], val, blocking)
		return
	}
	offset := 0
	for _, lv := range lhs {
		offset += lv.TargetWidth()
	}
	val = s.Tmp(offset).Set(val)
	for _, lv := range lhs {
		w := lv.TargetWidth()
		offset -= w
		s.writeLValue(lv, s.Tmp(w).SetShr(val, offset), blocking)
	}
}

func (s *Simulator) writeLValue(lv elab.LValue, val *bits.Vector, blocking bool) {
	word := -1
	if lv.ArrIndex != nil {
		if word = elab.Eval(lv.ArrIndex, s).Index(lv.Var.ArrayLen); word < 0 {
			return // out-of-range memory write is dropped
		}
	}
	hasRng, hi, lo := lv.HasRange, lv.Hi, lv.Lo
	if lv.DynBit != nil {
		b := elab.Eval(lv.DynBit, s).Index(lv.Var.Width)
		if b < 0 {
			return
		}
		hasRng, hi, lo = true, b, b
	}
	if blocking {
		s.applyWrite(lv.Var, word, hasRng, hi, lo, val)
		return
	}
	s.enqueue(lv.Var, word, hasRng, hi, lo, val)
}

// enqueue queues a non-blocking write. The value outlives its process:
// the queue keeps a copy it owns.
func (s *Simulator) enqueue(v *elab.Var, word int, hasRng bool, hi, lo int, val *bits.Vector) {
	w := v.Width
	if hasRng {
		w = hi - lo + 1
	}
	val = s.queued.tmp(w).Set(val)
	s.updates = append(s.updates, pendingUpdate{v: v, word: word, hasRng: hasRng, hi: hi, lo: lo, val: val})
}

// applyWrite performs an immediate write and fires sensitivity on change.
func (s *Simulator) applyWrite(v *elab.Var, word int, hasRng bool, hi, lo int, val *bits.Vector) {
	target := s.vals[v.Index]
	if word >= 0 {
		target = s.arrays[v.Index][word]
	}
	oldLSB := target.Bit(0)
	var changed bool
	if hasRng {
		changed = target.SetSlice(hi, lo, val)
	} else {
		changed = target.CopyFrom(val)
	}
	if !changed {
		return
	}
	s.WriteOps++
	if word >= 0 {
		oldLSB = target.Bit(0) // memories have no edge semantics
	}
	s.fire(v, oldLSB, target.Bit(0))
}

// exec interprets a resolved statement.
func (s *Simulator) exec(st elab.Stmt) {
	switch x := st.(type) {
	case nil:
	case *elab.Block:
		for _, sub := range x.Stmts {
			s.exec(sub)
		}
	case *elab.If:
		if elab.Eval(x.Cond, s).Bool() {
			s.exec(x.Then)
		} else {
			s.exec(x.Else)
		}
	case *elab.Case:
		subj := elab.Eval(x.Subject, s)
		var deflt elab.Stmt
		for _, item := range x.Items {
			if item.Labels == nil {
				deflt = item.Body
				continue
			}
			for li, l := range item.Labels {
				lv := elab.Eval(l, s)
				if m := item.Masks[li]; m != nil {
					diff := s.Tmp(max(subj.Width(), lv.Width(), m.Width()))
					if diff.SetXor(subj, lv).SetAnd(diff, m).IsZero() {
						s.exec(item.Body)
						return
					}
					continue
				}
				if lv.Equal(subj) {
					s.exec(item.Body)
					return
				}
			}
		}
		s.exec(deflt)
	case *elab.Assign:
		val := elab.Eval(x.RHS, s)
		s.writeTargets(x.LHS, val, x.Blocking)
	case *elab.SysTask:
		s.sysTask(x)
	default:
		panic(fmt.Sprintf("sim: unknown statement %T", st))
	}
}

func (s *Simulator) sysTask(t *elab.SysTask) {
	switch t.Kind {
	case elab.TaskDisplay:
		s.display(s.formatTask(t) + "\n")
	case elab.TaskWrite:
		s.display(s.formatTask(t))
	case elab.TaskMonitor:
		m := &monitorState{task: t}
		s.monitors = append(s.monitors, m)
		cur := s.formatTask(t)
		m.last = []string{cur}
		s.display(cur + "\n")
	case elab.TaskFinish:
		s.finished = true
		if s.opts.Finish != nil {
			s.opts.Finish(0)
		}
	}
}

func (s *Simulator) display(text string) {
	if s.opts.Display != nil {
		s.opts.Display(text)
	}
}

// formatTask renders a $display/$write/$monitor according to its format
// string. Supported verbs: %d %h %x %b %o %c %s %m %% with an optional 0
// flag and field width for %d (e.g. %08d). Without a format string,
// arguments print space-separated in decimal (standard behaviour).
func (s *Simulator) formatTask(t *elab.SysTask) string {
	vals := make([]*bits.Vector, len(t.Args))
	for i, a := range t.Args {
		vals[i] = elab.Eval(a, s)
	}
	if t.Format == "" {
		parts := make([]string, len(vals))
		for i, v := range vals {
			parts[i] = v.Dec()
		}
		return strings.Join(parts, " ")
	}
	return FormatDisplay(t.Format, vals, s.flat.Name)
}

// FormatDisplay implements Verilog $display formatting for 2-state values.
func FormatDisplay(format string, args []*bits.Vector, scope string) string {
	var sb strings.Builder
	argi := 0
	next := func() *bits.Vector {
		if argi < len(args) {
			v := args[argi]
			argi++
			return v
		}
		return bits.New(1)
	}
	for i := 0; i < len(format); i++ {
		c := format[i]
		if c != '%' {
			sb.WriteByte(c)
			continue
		}
		i++
		if i >= len(format) {
			sb.WriteByte('%')
			break
		}
		// Optional zero flag and width digits.
		zero := false
		width := 0
		for i < len(format) && format[i] >= '0' && format[i] <= '9' {
			if format[i] == '0' && width == 0 {
				zero = true
			} else {
				width = width*10 + int(format[i]-'0')
			}
			i++
		}
		if i >= len(format) {
			break
		}
		var text string
		switch format[i] {
		case 'd', 'D', 't', 'T':
			text = next().Dec()
		case 'h', 'H', 'x', 'X':
			text = next().Hex()
		case 'b', 'B':
			text = next().Bin()
		case 'o', 'O':
			text = next().Oct()
		case 'c', 'C':
			text = string(rune(next().Uint64() & 0xff))
		case 's', 'S':
			v := next()
			raw := make([]byte, 0, v.Width()/8)
			ws := v.Words()
			for b := v.Width() - 8; b >= 0; b -= 8 {
				ch := byte(ws[b/bits.WordBits] >> (b % bits.WordBits))
				if b%bits.WordBits > bits.WordBits-8 && b/bits.WordBits+1 < len(ws) {
					ch |= byte(ws[b/bits.WordBits+1] << (bits.WordBits - b%bits.WordBits))
				}
				if ch != 0 {
					raw = append(raw, ch)
				}
			}
			text = string(raw)
		case 'm', 'M':
			text = scope
		case '%':
			text = "%"
		default:
			text = "%" + string(format[i])
		}
		for len(text) < width {
			if zero {
				text = "0" + text
			} else {
				text = " " + text
			}
		}
		sb.WriteString(text)
	}
	return sb.String()
}
