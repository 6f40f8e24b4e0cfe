// Package njit compiles a synthesized netlist into closure-threaded Go:
// the native software tier of the JIT ladder (ROADMAP item 2, in the
// spirit of vlang's netlist-to-compiler-backend mapping). Where the
// reference path in internal/netlist re-dispatches a per-op switch and
// materializes bit vectors on every instruction, the native tier fuses
// each process into straight-line closures over word-packed state —
// []uint64 lanes for slots of 64 bits or less, bit vectors only for
// wide slots — with branch targets resolved to closure indices at
// compile time. The compiled evaluator shares the Machine's backing
// state (netlist.Hooks) and falls back to Machine.ExecOp for any
// instruction it does not fuse, so each op kind has exactly two
// implementations — the reference and the closure here — and
// TestOpSemanticsAgree holds them together. Core is the engine built on
// the pair; the native tier (Engine) and the fabric model (hweng) embed
// it.
//
// Every eval regenerates a program's native code, so Compile builds
// straight into the compiled form: the edge-watcher and reader relations
// are CSR tables filled in two passes over their values, one builder
// compiles every process with its slices reused, fused runs share one
// operand array and the processes' blocks two exactly sized arrays. What
// a compile allocates beyond what the engine keeps is a few arrays sized
// to the program (TestNativeCompileAllocBudget).
package njit

import (
	mbits "math/bits"
	"slices"

	"cascade/internal/elab"
	"cascade/internal/netlist"
)

// block is one basic block: fused straight-line closures plus a
// terminator that names the next block by index (-1 halts). Jump
// targets are resolved at compile time, so running a process is a tight
// closure-index loop with no opcode dispatch.
type block struct {
	ops  []func()
	n    uint64 // instructions this block represents, for billing
	next func() int
	to   int // the successor when it is static (next == nil)
}

// proc is one compiled process body (a combinational unit or a
// sequential process), finalized to one fused step closure per block:
// the closure executes the block's straight-line ops and returns the
// next block index, so the dispatch loop is two array loads and one
// indirect call per block.
type proc struct {
	steps []func() int
	bn    []uint64 // instructions each block represents, for billing
}

func (pr *proc) run() uint64 {
	var n uint64
	bi := 0
	for bi >= 0 {
		n += pr.bn[bi]
		bi = pr.steps[bi]()
	}
	return n
}

// Eval is a netlist.Program compiled to closure-threaded Go. It wraps
// the Machine whose state it shares: narrow ops run fused closures over
// the machine's word lanes; wide ops, display tasks, and anything else
// exotic fall back to the reference path (Machine.ExecOp) one
// instruction at a time.
type Eval struct {
	m    *netlist.Machine
	prog *netlist.Program

	u64        []uint64
	seqTrig    []bool
	combDirty  *bool
	seqPending *bool

	// edges lists the sequential processes watching each slot for an
	// edge, in the order the machine triggers them, from the program's
	// sensitivity lists: row 2*slot+1 holds the posedge watchers, row
	// 2*slot the negedge ones.
	edges rel[int32]

	// Sensitivity as bit sets: dirty has a bit per comb unit left to
	// run, in index order; row i of sens holds the dirty-set words and
	// bits of the units whose reachable code reads slot i (memory k at
	// row len(Slots)+k). A change sets only its readers' bits, so a clock
	// toggle that feeds nothing but edge detectors costs no comb pass; a
	// wholesale state replacement sets every bit.
	sens  rel[unitBits]
	dirty []uint64

	// Fast non-blocking commit buffer. A slot qualifies when every
	// non-blocking write to it anywhere in the program is a narrow
	// full-slot OpWriteNB: such slots never appear in the machine's
	// pending queue, so their writes coalesce into a last-write-wins
	// shadow word, numbered in slot order, and a bit of nbSet, which
	// Update commits in order through the first len(nbVal) sinks (the
	// store closures' follow). Commit order is unobservable: a commit
	// only stores and sets marks and triggers.
	nbVal  []uint64
	nbSet  []uint64
	sinks  []sink
	nbNone uint64 // the bits a fused move sets: none

	comb []proc
	seq  []proc

	nativeOps uint64
}

// rel is a compressed row -> values relation (CSR). The dense [][]int
// it replaces cost a 24-byte header per slot, nearly all empty, for as
// long as the engine lives.
type rel[T any] struct {
	off  []uint32 // row i is list[off[i]:off[i+1]]
	list []T
}

func (r rel[T]) row(i int) []T { return r.list[r.off[i]:r.off[i+1]] }

// put adds v to row i of a relation built in two passes over its values:
// the first counts the rows (list is nil), the second places each value,
// advancing its row's start to the next row's.
func (r *rel[T]) put(i int, v T) {
	if r.list == nil {
		r.off[i+1]++
	} else {
		r.list[r.off[i]] = v
		r.off[i]++
	}
}

// pass ends a pass of the build: the counts become row starts and list
// is sized, or the advanced starts shift back.
func (r *rel[T]) pass() {
	if r.list == nil {
		for i := 1; i < len(r.off); i++ {
			r.off[i] += r.off[i-1]
		}
		r.list = make([]T, r.off[len(r.off)-1])
		return
	}
	copy(r.off[1:], r.off[:len(r.off)-1])
	r.off[0] = 0
}

// unitBits is one word of the comb dirty set and bits in it.
type unitBits struct {
	w int32
	m uint64
}

// sink is what a store to one slot or memory sets in motion, resolved at
// compile time: the bits m of dirty-set word w its readers set when they
// share a word, else (m == 0, w < 0) a lookup of sens row -1-w; and
// whether a process watches the slot for an edge.
type sink struct {
	row, w int32
	m      uint64
	edge   bool
}

// compiler is the state only compilation needs; nothing in the compiled
// closures references it, so it is garbage once Compile returns.
type compiler struct {
	e *Eval
	b builder // compiles every process in turn, its slices reused

	// nb is 1 + a slot's word in the fast non-blocking buffer, 0 for a
	// slot the buffer does not hold.
	nb []int32

	// Whole-program def/use counts, driving compile-time rewrites:
	// constant hoisting (a single-writer OpConst temp is materialized
	// once at compile time and emits no closure), compare/branch fusion
	// (a single-use comparison feeding the Jz that immediately follows it
	// folds into the block terminator) and rotate fusion (two slices into
	// single-use temps and the concat that reads them).
	writes []int32
	reads  []int32
	// constSlot marks lanes holding a hoisted compile-time constant.
	constSlot []bool

	// Dense per-pc scratch shared by every process compile, each entry
	// reset through a list of the pcs set: seen by reach, leader and block
	// (1 + the block index at a leader) by the process being compiled.
	seen, leader   []bool
	block          []int32
	seenAt, blocks []int
	stack          []int

	// Every process's finalized blocks, in compile order, until Compile
	// copies them into the two exactly sized arrays the procs share.
	steps []func() int
	bn    []uint64
}

// Compile builds the native evaluator for m's program, sharing m's
// packed state. The machine stays fully usable; reference path and native
// tier may even interleave (the engine fallback path relies on it).
func Compile(m *netlist.Machine) *Eval {
	p := m.Prog()
	h := m.Hooks()
	e := &Eval{
		m:          m,
		prog:       p,
		u64:        h.U64,
		seqTrig:    h.SeqTrig,
		combDirty:  h.CombDirty,
		seqPending: h.SeqPending,
		dirty:      make([]uint64, (len(p.Comb)+63)/64),
	}
	c := &compiler{
		e:         e,
		nb:        make([]int32, len(p.Slots)),
		writes:    make([]int32, len(p.Slots)),
		reads:     make([]int32, len(p.Slots)),
		constSlot: make([]bool, len(p.Slots)),
		seen:      make([]bool, len(p.Code)+1),
		leader:    make([]bool, len(p.Code)+1),
		block:     make([]int32, len(p.Code)+1),
	}
	c.b.c = c
	nfused, nstores := 0, 0
	for i := range p.Code {
		op := &p.Code[i]
		switch d := op.Dst; op.Kind {
		case netlist.OpMove, netlist.OpSlice:
			nfused++
		case netlist.OpWriteNB:
			nfused++
			if op.Wide { // as every write to a wide slot is
				c.nb[d] = -1
			} else if c.nb[d] == 0 {
				c.nb[d] = 1
			}
		case netlist.OpWriteRngNB, netlist.OpWriteBitNB:
			c.nb[d] = -1
		case netlist.OpWrite, netlist.OpWriteRng, netlist.OpWriteBit, netlist.OpMemWrite:
			nstores++
		}
		for _, s := range p.Srcs(op) {
			c.reads[s]++
		}
		if opWritesDst(op.Kind) {
			c.writes[op.Dst]++
		}
	}
	c.b.fused = make([]fused, 0, nfused)
	c.relations(nstores)
	e.InvalidateAll()
	m.ChangeHook = e.onChange
	// Every process's blocks are gathered in c.steps and c.bn, then move
	// into arrays of their own, exactly sized: the compiled form outlives
	// the scratch they were gathered in.
	ends := make([]int, 0, len(p.Comb)+len(p.Seq))
	for _, cu := range p.Comb {
		c.compileProc(cu.Entry)
		ends = append(ends, len(c.steps))
	}
	for _, sp := range p.Seq {
		c.compileProc(sp.Entry)
		ends = append(ends, len(c.steps))
	}
	steps, bn := slices.Clone(c.steps), slices.Clone(c.bn)
	procs := make([]proc, len(ends))
	lo := 0
	for i, hi := range ends {
		procs[i] = proc{steps: steps[lo:hi:hi], bn: bn[lo:hi:hi]}
		lo = hi
	}
	e.comb, e.seq = procs[:len(p.Comb):len(p.Comb)], procs[len(p.Comb):]
	return e
}

// relations builds the compiled form's two relations in two passes
// over their values — the sequential processes watching each slot for
// an edge (row 2*slot+1 posedge, 2*slot negedge, in trigger order), and
// the dirty-set bits of the comb units whose reachable code reads each
// slot and each memory — then numbers the fast buffer's slots and
// resolves their sinks, in an array with room for nstores more.
func (c *compiler) relations(nstores int) {
	e, p := c.e, c.e.prog
	rows := len(p.Slots) + len(p.Mems)
	e.edges.off, e.sens.off = make([]uint32, 2*len(p.Slots)+1), make([]uint32, rows+1)
	// A unit reads a slot or memory once however often its code does,
	// and the units of one dirty-set word share an entry: last[x] is 1 +
	// the word of row x's latest entry.
	last := make([]int32, rows)
	var bit unitBits
	read := func(x int) {
		if last[x] != bit.w+1 {
			e.sens.put(x, bit)
		} else if e.sens.list != nil {
			e.sens.list[e.sens.off[x]-1].m |= bit.m
		}
		last[x] = bit.w + 1
	}
	for range 2 {
		for pi, sp := range p.Seq {
			for _, ed := range sp.Edges {
				if row := 2 * p.VarSlot[ed.Var.Index]; ed.Kind == elab.Pos {
					e.edges.put(row+1, int32(pi))
				} else if ed.Kind == elab.Neg {
					e.edges.put(row, int32(pi))
				}
			}
		}
		for ui, cu := range p.Comb {
			bit = unitBits{int32(ui >> 6), 1 << (ui & 63)}
			c.reach(cu.Entry, func(_ int, op *netlist.Op) {
				for _, src := range p.Srcs(op) {
					read(int(src))
				}
				if op.Kind == netlist.OpMemRead {
					read(len(p.Slots) + int(op.Aux))
				}
			})
		}
		e.edges.pass()
		e.sens.pass()
		clear(last)
	}

	n := 0
	for d, k := range c.nb {
		if k > 0 {
			n++
			c.nb[d] = int32(n)
		}
	}
	e.nbVal, e.nbSet, e.sinks = make([]uint64, n), make([]uint64, (n+63)/64), make([]sink, 0, n+nstores)
	for d, k := range c.nb {
		if k > 0 {
			c.sink(d)
		}
	}
}

// sink resolves what a store to sens row i (a slot, or a memory past
// the slots) sets in motion, into the next of the engine's sinks.
func (c *compiler) sink(i int) *sink {
	s := sink{row: int32(i)}
	if bs := c.e.sens.row(i); len(bs) == 1 {
		s.w, s.m = bs[0].w, bs[0].m
	} else if len(bs) > 1 {
		s.w = int32(-1 - i)
	}
	s.edge = i < len(c.e.prog.Slots) && c.e.edges.off[2*i] != c.e.edges.off[2*i+2]
	c.e.sinks = append(c.e.sinks, s)
	return &c.e.sinks[len(c.e.sinks)-1]
}

// onChange is the machine's ChangeHook: slow-path state changes mark
// the comb units that read the changed slot or memory.
func (e *Eval) onChange(slot int) {
	if slot < 0 {
		slot = len(e.prog.Slots) - 1 - slot
	}
	e.touch(int32(-1-slot), 0)
}

// touch marks the comb units a sink's (w, m) names: bits m of dirty-set
// word w, or (m == 0, w < 0) those sens row -1-w lists.
func (e *Eval) touch(w int32, m uint64) {
	if m != 0 {
		e.dirty[w] |= m
		*e.combDirty = true
	} else if w < 0 {
		for _, b := range e.sens.row(int(-1 - w)) {
			e.dirty[b.w] |= b.m
			*e.combDirty = true
		}
	}
}

// store writes nv into the narrow slot s names with the machine's
// change-detection semantics: a change marks the comb units reading
// it; an LSB transition triggers the processes watching it.
func (e *Eval) store(s *sink, nv uint64) {
	old := e.u64[s.row]
	if old == nv {
		return
	}
	e.u64[s.row] = nv
	e.touch(s.w, s.m)
	if s.edge && (old^nv)&1 != 0 {
		for _, p := range e.edges.row(2*int(s.row) + int(nv&1)) {
			e.seqTrig[p] = true
			*e.seqPending = true
		}
	}
}

// InvalidateAll schedules a full combinational pass (state replaced
// wholesale, e.g. after a SetState handoff).
func (e *Eval) InvalidateAll() {
	for i := range e.prog.Comb {
		e.dirty[i>>6] |= 1 << (i & 63)
	}
	*e.combDirty = true
}

// HasActive reports pending evaluation work (there_are_evals).
func (e *Eval) HasActive() bool { return *e.combDirty || *e.seqPending }

// Evaluate mirrors Machine.Evaluate over the shared dirty/trigger
// state: run triggered sequential processes, then settle combinational
// logic to a fixpoint, sweeping the dirty set in index order. A unit
// marked behind the cursor waits for the next sweep, after any
// sequential process this one triggered.
func (e *Eval) Evaluate() {
	worked := false
	for *e.seqPending || *e.combDirty {
		worked = true
		if *e.seqPending {
			*e.seqPending = false
			for i := range e.seqTrig {
				if e.seqTrig[i] {
					e.seqTrig[i] = false
					e.nativeOps += e.seq[i].run()
				}
			}
		}
		if *e.combDirty {
			*e.combDirty = false
			for wi := range e.dirty {
				for ahead := ^uint64(0); e.dirty[wi]&ahead != 0; {
					b := mbits.TrailingZeros64(e.dirty[wi] & ahead)
					e.dirty[wi] &^= 1 << b
					ahead = ^uint64(0) << b << 1
					e.nativeOps += e.comb[wi<<6|b].run()
				}
			}
		}
	}
	if worked {
		e.m.Cycles++
	}
}

// HasUpdates reports queued non-blocking writes in either commit buffer
// (there_are_updates).
func (e *Eval) HasUpdates() bool {
	for _, w := range e.nbSet {
		if w != 0 {
			return true
		}
	}
	return e.m.HasUpdates()
}

// Update commits queued non-blocking writes: the machine's pending
// queue (slow-path records) plus the native tier's coalesced shadow
// words.
func (e *Eval) Update() {
	if e.m.HasUpdates() {
		e.m.Update()
	}
	for wi, w := range e.nbSet {
		e.nbSet[wi] = 0
		for ; w != 0; w &= w - 1 {
			k := wi<<6 | mbits.TrailingZeros64(w)
			e.store(&e.sinks[k], e.nbVal[k])
		}
	}
}

// NativeOpsDelta returns compiled instructions executed since the last
// call and resets the counter.
func (e *Eval) NativeOpsDelta() uint64 {
	d := e.nativeOps
	e.nativeOps = 0
	return d
}

// builder compiles one process body into basic blocks. One builder
// compiles every process of a program in turn, reusing its slices.
type builder struct {
	c      *compiler
	code   []netlist.Op
	blocks []block
	metas  []eqMeta
	refs   []int // references to each block as a successor (or the entry)
	todo   []int
	// ops holds the blocks' straight-line closures, each block's a run
	// of it (block.ops); covered marks the switch-chain arms a head's
	// jump table dispatches past.
	ops     []func()
	covered []bool
	// fused holds every fused run's operands, sized to the program: the
	// pending run is fused[runAt:], of one shape (the instructions an
	// entry takes), which flush compiles into one closure.
	fused        []fused
	runAt, shape int
}

// fused is one instruction of a fused run (a rotate: two slices and the
// concat of their single-use temps), its operands as lane pointers. A
// copy — a fast-buffer write or a move, one shape — stores *a&ma in *d
// and sets bits mb of *b (a move sets none); a rotate stores the concat
// of *a>>la&ma and *b>>lb&mb, the low part wb bits wide, in *d.
type fused struct {
	d, a, b    *uint64
	ma, mb     uint64
	la, lb, wb uint8
}

// eqMeta records a block whose terminator is a fused equality test, the
// raw material for the switch-chain -> jump-table rewrite.
type eqMeta struct {
	valid    bool
	a, b     int // compared slots
	eqT, neT int // successor block on equal / not-equal
}

// compileProc compiles the process at entry and appends its finalized
// blocks to c.steps and c.bn.
func (c *compiler) compileProc(entry int) {
	b := &c.b
	b.code = c.e.prog.Code
	b.blocks, b.metas, b.refs, b.todo, b.ops = b.blocks[:0], b.metas[:0], b.refs[:0], b.todo[:0], b.ops[:0]
	b.scanLeaders(entry)
	b.blockAt(entry)
	for len(b.todo) > 0 {
		pc := b.todo[len(b.todo)-1]
		b.todo = b.todo[:len(b.todo)-1]
		b.fill(pc)
	}
	b.rewriteSwitches()
	for _, pc := range c.blocks {
		c.leader[pc], c.block[pc] = false, 0
	}
	c.blocks = c.blocks[:0]
	b.finalize()
}

// finalize fuses each block's ops and terminator into one step closure,
// specialized for the short blocks branchy netlists produce and for a
// static successor, and appends the steps and their bills to the
// compiler's.
func (b *builder) finalize() {
	c := b.c
	for i := range b.blocks {
		blk := &b.blocks[i]
		term, to := blk.next, blk.to
		c.bn = append(c.bn, blk.n)
		var step func() int
		switch n := len(blk.ops); {
		case term == nil && n == 0:
			step = func() int { return to }
		case term == nil && n == 1:
			f0 := blk.ops[0]
			step = func() int { f0(); return to }
		case term == nil:
			ops := slices.Clone(blk.ops) // b.ops is the next process's
			step = func() int {
				for _, f := range ops {
					f()
				}
				return to
			}
		case n == 0:
			step = term
		case n == 1:
			f0 := blk.ops[0]
			step = func() int { f0(); return term() }
		case n == 2:
			f0, f1 := blk.ops[0], blk.ops[1]
			step = func() int { f0(); f1(); return term() }
		default:
			ops := slices.Clone(blk.ops) // b.ops is the next process's
			step = func() int {
				for _, f := range ops {
					f()
				}
				return term()
			}
		}
		c.steps = append(c.steps, step)
	}
}

// reach visits every instruction reachable from entry, once each.
func (c *compiler) reach(entry int, visit func(pc int, op *netlist.Op)) {
	code := c.e.prog.Code
	stack := append(c.stack[:0], entry)
	for len(stack) > 0 {
		pc := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if c.seen[pc] {
			continue
		}
		c.seen[pc] = true
		c.seenAt = append(c.seenAt, pc)
		op := &code[pc]
		visit(pc, op)
		switch op.Kind {
		case netlist.OpHalt:
		case netlist.OpJump:
			stack = append(stack, int(op.Target))
		case netlist.OpJz:
			stack = append(stack, int(op.Target), pc+1)
		default:
			stack = append(stack, pc+1)
		}
	}
	c.stack = stack
	for _, pc := range c.seenAt {
		c.seen[pc] = false
	}
	c.seenAt = c.seenAt[:0]
}

// scanLeaders marks every jump target (and Jz fallthrough) reachable
// from entry as a block leader, so a later branch into the middle of a
// straight-line run splits it correctly.
func (b *builder) scanLeaders(entry int) {
	c := b.c
	mark := func(pc int) {
		if !c.leader[pc] {
			c.leader[pc] = true
			c.blocks = append(c.blocks, pc)
		}
	}
	c.reach(entry, func(pc int, op *netlist.Op) {
		switch op.Kind {
		case netlist.OpJump:
			mark(int(op.Target))
		case netlist.OpJz:
			mark(int(op.Target))
			mark(pc + 1)
		}
	})
}

// blockAt returns the block index for the leader at pc, scheduling it
// for compilation on first sight. Indices are stable across appends, so
// terminator closures can capture them before the block is filled.
func (b *builder) blockAt(pc int) int {
	if i := int(b.c.block[pc]) - 1; i >= 0 {
		b.refs[i]++
		return i
	}
	i := len(b.blocks)
	if b.c.block[pc] = int32(i + 1); !b.c.leader[pc] {
		b.c.blocks = append(b.c.blocks, pc) // reset with the leaders
	}
	b.blocks = append(b.blocks, block{})
	b.metas = append(b.metas, eqMeta{})
	b.refs = append(b.refs, 1)
	b.todo = append(b.todo, pc)
	return i
}

// fill compiles the straight-line run starting at pc into its block.
func (b *builder) fill(pc int) {
	bi := int(b.c.block[pc]) - 1
	start := len(b.ops)
	var n uint64
	// prev/prev2 shadow ops[len-1]/ops[len-2] for terminator fusion.
	var prev, prev2 *netlist.Op
	cur := pc
	for {
		op := &b.code[cur]
		n++
		switch op.Kind {
		case netlist.OpHalt:
			b.blocks[bi].to = -1
		case netlist.OpJump:
			b.blocks[bi].to = b.blockAt(int(op.Target))
		case netlist.OpJz:
			var next func() int
			if prev != nil && b.c.canFuseJz(prev, op) {
				tt, ff := b.blockAt(int(op.Target)), b.blockAt(cur+1)
				// A LogNot between a comparison and its branch inverts
				// the sense: fold all three by swapping the targets.
				if prev.Kind == netlist.OpLogNot && prev2 != nil &&
					b.c.canFuseCmpInto(prev2, prev) {
					if next = b.c.e.fuseJz(prev2, ff, tt); next != nil {
						b.ops = b.ops[:len(b.ops)-2]
						if prev2.Kind == netlist.OpEq {
							b.metas[bi] = eqMeta{valid: true, a: b.c.src(prev2, 0), b: b.c.src(prev2, 1), eqT: tt, neT: ff}
						}
					}
				}
				if next == nil {
					if next = b.c.e.fuseJz(prev, tt, ff); next != nil {
						b.ops = b.ops[:len(b.ops)-1]
						if prev.Kind == netlist.OpEq {
							b.metas[bi] = eqMeta{valid: true, a: b.c.src(prev, 0), b: b.c.src(prev, 1), eqT: ff, neT: tt}
						}
					}
				}
			}
			if next == nil {
				next = b.jz(op, b.blockAt(int(op.Target)), b.blockAt(cur+1))
			}
			b.blocks[bi].next = next
		default:
			if k := b.fuse(cur); k > 0 {
				n += uint64(k - 1)
				cur += k
				prev2, prev = nil, nil
			} else if fn := b.c.compileOp(op); fn != nil {
				b.flush()
				b.ops = append(b.ops, fn)
				prev2, prev = prev, op
				cur++
			} else {
				n-- // hoisted to compile time, nothing to execute or bill
				prev2, prev = nil, nil
				cur++
			}
			if b.c.leader[cur] {
				b.blocks[bi].to = b.blockAt(cur)
				b.seal(bi, start, n)
				return
			}
			continue
		}
		b.seal(bi, start, n)
		return
	}
}

// seal ends block bi's pending run and records its closures,
// ops[start:], and what it bills. A run pending at a fused branch is
// no loss: the comparison the branch folds in is never part of one.
func (b *builder) seal(bi, start int, n uint64) {
	b.flush()
	b.blocks[bi].ops, b.blocks[bi].n = b.ops[start:len(b.ops):len(b.ops)], n
}

// fuse adds the instructions at pc to the pending run when they have a
// fusable shape — a fast-buffer non-blocking write, a move, or a rotate
// (two slices into single-use temps and the concat reading just them) —
// and returns how many it took, 0 for any other shape.
func (b *builder) fuse(pc int) int {
	c, op := b.c, &b.code[pc]
	if op.Wide {
		return 0
	}
	u := c.e.u64
	f, k := fused{ma: netlist.Mask(int(op.Width))}, 1
	switch op.Kind {
	case netlist.OpWriteNB:
		w := c.nb[op.Dst] - 1
		if w < 0 {
			return 0
		}
		f.d, f.b, f.mb = &c.e.nbVal[w], &c.e.nbSet[w>>6], 1<<(w&63)
		f.a, f.ma = &u[c.src(op, 0)], netlist.Mask(c.e.prog.Slots[op.Dst].Width)
	case netlist.OpMove:
		f.d, f.a, f.b = &u[op.Dst], &u[c.src(op, 0)], &c.e.nbNone
	case netlist.OpSlice:
		if pc+2 >= len(b.code) || c.leader[pc+1] || c.leader[pc+2] {
			return 0
		}
		hi, cat := &b.code[pc+1], &b.code[pc+2]
		if hi.Kind != netlist.OpSlice || hi.Wide || cat.Kind != netlist.OpConcat || cat.Wide || cat.NSrcs != 2 ||
			c.src(cat, 0) != int(op.Dst) || c.src(cat, 1) != int(hi.Dst) || !c.temp(op.Dst) || !c.temp(hi.Dst) ||
			uint32(op.Lo) >= 64 || uint32(hi.Lo) >= 64 {
			return 0
		}
		slots, mk := c.e.prog.Slots, netlist.Mask(int(cat.Width))
		wb := slots[hi.Dst].Width
		f.d, f.a, f.b = &u[cat.Dst], &u[c.src(op, 0)], &u[c.src(hi, 0)]
		f.ma &= netlist.Mask(slots[op.Dst].Width) & (mk >> wb)
		f.mb = netlist.Mask(int(hi.Width)) & netlist.Mask(wb) & mk
		f.la, f.lb, f.wb, k = uint8(op.Lo), uint8(hi.Lo), uint8(wb), 3
	default:
		return 0
	}
	if b.shape != k {
		b.flush()
	}
	b.shape, b.fused = k, append(b.fused, f)
	return k
}

// flush compiles the pending run into one closure at the end of b.ops.
func (b *builder) flush() {
	n := len(b.fused)
	if b.runAt == n {
		return
	}
	run := b.fused[b.runAt:n:n]
	b.runAt = n
	switch f := run[0]; {
	case len(run) == 1 && b.shape == 1:
		b.ops = append(b.ops, func() { *f.d = *f.a & f.ma; *f.b |= f.mb })
	case b.shape == 1:
		b.ops = append(b.ops, func() {
			for i := range run {
				f := &run[i]
				*f.d = *f.a & f.ma
				*f.b |= f.mb
			}
		})
	default:
		b.ops = append(b.ops, func() {
			for i := range run {
				f := &run[i]
				*f.d = (*f.a>>f.la&f.ma)<<f.wb | *f.b>>f.lb&f.mb
			}
		})
	}
}

// temp reports whether slot d is a temporary written once and read once.
func (c *compiler) temp(d int32) bool {
	return c.writes[d] == 1 && c.reads[d] == 1 && c.e.prog.Slots[d].Var == nil
}

// arm resolves block bi's fused equality test into (variable lane,
// constant value) when exactly one side is a hoisted constant.
func (b *builder) arm(bi int) (x int, cval uint64, ok bool) {
	m := b.metas[bi]
	if !m.valid {
		return 0, 0, false
	}
	ca, cb := b.c.constSlot[m.a], b.c.constSlot[m.b]
	switch {
	case ca && !cb:
		return m.b, b.c.e.u64[m.a], true
	case cb && !ca:
		return m.a, b.c.e.u64[m.b], true
	}
	return 0, 0, false
}

// rewriteSwitches turns chains of fused constant-equality tests over
// one lane — the netlist lowering of a case statement — into a single
// jump-table dispatch, so a DFA transition costs one indexed load
// instead of a walk over every arm. Only a chain's head gets a table:
// a later arm entered from nowhere but its predecessor is never
// dispatched on once the head jumps past it, and a table per arm would
// retain k suffix tables for a k-arm case.
func (b *builder) rewriteSwitches() {
	covered := slices.Grow(b.covered[:0], len(b.blocks))[:len(b.blocks)]
	clear(covered)
	b.covered = covered
	for bi := range b.blocks {
		if x, _, ok := b.arm(bi); ok {
			nx := b.metas[bi].neT
			if xs, _, okn := b.arm(nx); okn && xs == x && b.refs[nx] == 1 && len(b.blocks[nx].ops) == 0 {
				covered[nx] = true
			}
		}
	}
	for bi := range b.blocks {
		x, _, ok := b.arm(bi)
		if !ok || covered[bi] {
			continue
		}
		cases := map[uint64]int{}
		visited := map[int]bool{}
		cur := bi
		for !visited[cur] && (cur == bi || len(b.blocks[cur].ops) == 0) {
			xs, cv, okc := b.arm(cur)
			if !okc || xs != x {
				break
			}
			visited[cur] = true
			if _, dup := cases[cv]; !dup {
				cases[cv] = b.metas[cur].eqT // first matching arm wins
			}
			cur = b.metas[cur].neT
		}
		def := cur // the block the chain falls through to when no arm hits
		if len(cases) < 4 {
			continue
		}
		u := b.c.e.u64
		var maxv uint64
		for v := range cases {
			if v > maxv {
				maxv = v
			}
		}
		if maxv <= 4096 {
			tbl := make([]int32, maxv+1)
			for i := range tbl {
				tbl[i] = int32(def)
			}
			for v, t := range cases {
				tbl[v] = int32(t)
			}
			b.blocks[bi].next = func() int {
				if v := u[x]; v < uint64(len(tbl)) {
					return int(tbl[v])
				}
				return def
			}
		} else {
			cm := cases
			b.blocks[bi].next = func() int {
				if t, ok := cm[u[x]]; ok {
					return t
				}
				return def
			}
		}
	}
}

// opWritesDst reports whether executing kind stores to Op.Dst's word
// lane (directly, or at non-blocking commit time).
func opWritesDst(k netlist.OpKind) bool {
	switch {
	case k <= netlist.OpMemRead:
		return true
	case k >= netlist.OpWrite && k <= netlist.OpWriteBit:
		return true
	case k >= netlist.OpWriteNB && k <= netlist.OpWriteBitNB:
		return true
	}
	return false
}

// src returns op's i-th source slot.
func (c *compiler) src(op *netlist.Op, i int) int { return int(c.e.prog.Srcs(op)[i]) }

// canFuseJz reports whether prev is a narrow comparison whose only
// consumer is the Jz that immediately follows it, so the pair can
// become a single fused conditional terminator.
func (c *compiler) canFuseJz(prev, jz *netlist.Op) bool {
	return !jz.Wide && c.canFuseCmpInto(prev, jz)
}

// canFuseCmpInto reports whether cmp is a narrow comparison consumed
// only by the instruction that immediately follows it.
func (c *compiler) canFuseCmpInto(cmp, next *netlist.Op) bool {
	if cmp.Wide || c.src(next, 0) != int(cmp.Dst) {
		return false
	}
	if c.reads[cmp.Dst] != 1 || c.writes[cmp.Dst] != 1 {
		return false
	}
	switch cmp.Kind {
	case netlist.OpEq, netlist.OpNe, netlist.OpLt, netlist.OpLe,
		netlist.OpGt, netlist.OpGe, netlist.OpLogNot, netlist.OpLogAnd,
		netlist.OpLogOr, netlist.OpRedOr, netlist.OpRedNor:
		return true
	}
	return false
}

// fuseJz compiles compare-and-branch: Jz jumps to t when the comparison
// yields zero, falls through to f otherwise.
func (e *Eval) fuseJz(cmp *netlist.Op, t, f int) func() int {
	u := e.u64
	srcs := e.prog.Srcs(cmp)
	a := srcs[0]
	var b int32
	if len(srcs) > 1 {
		b = srcs[1]
	}
	switch cmp.Kind {
	case netlist.OpEq:
		return func() int {
			if u[a] == u[b] {
				return f
			}
			return t
		}
	case netlist.OpNe:
		return func() int {
			if u[a] != u[b] {
				return f
			}
			return t
		}
	case netlist.OpLt:
		return func() int {
			if u[a] < u[b] {
				return f
			}
			return t
		}
	case netlist.OpLe:
		return func() int {
			if u[a] <= u[b] {
				return f
			}
			return t
		}
	case netlist.OpGt:
		return func() int {
			if u[a] > u[b] {
				return f
			}
			return t
		}
	case netlist.OpGe:
		return func() int {
			if u[a] >= u[b] {
				return f
			}
			return t
		}
	case netlist.OpLogNot, netlist.OpRedNor:
		return func() int {
			if u[a] == 0 {
				return f
			}
			return t
		}
	case netlist.OpRedOr:
		return func() int {
			if u[a] != 0 {
				return f
			}
			return t
		}
	case netlist.OpLogAnd:
		return func() int {
			if u[a] != 0 && u[b] != 0 {
				return f
			}
			return t
		}
	case netlist.OpLogOr:
		return func() int {
			if u[a] != 0 || u[b] != 0 {
				return f
			}
			return t
		}
	}
	return nil
}

// jz compiles a conditional branch terminator with both successor block
// indices resolved at compile time.
func (b *builder) jz(op *netlist.Op, t, f int) func() int {
	if op.Wide {
		m := b.c.e.m
		return func() int {
			if m.ExecOp(op) {
				return t
			}
			return f
		}
	}
	u := b.c.e.u64
	s := b.c.src(op, 0)
	return func() int {
		if u[s] == 0 {
			return t
		}
		return f
	}
}

// compileOp lowers one non-branch instruction to a closure. Narrow ops
// fuse direct word-lane arithmetic with precomputed masks; anything
// wide (or rare enough not to be worth fusing) falls back to the
// reference path.
func (c *compiler) compileOp(op *netlist.Op) func() {
	e := c.e
	m := e.m
	if op.Wide {
		return func() { m.ExecOp(op) }
	}
	u := e.u64
	slots := e.prog.Slots
	d := int(op.Dst)
	mk := netlist.Mask(int(op.Width))
	srcs := e.prog.Srcs(op)
	var s0, s1 int
	if len(srcs) > 0 {
		s0 = int(srcs[0])
	}
	if len(srcs) > 1 {
		s1 = int(srcs[1])
	}
	switch op.Kind {
	case netlist.OpConst:
		cv := e.prog.Const(op).Uint64() & mk
		if c.writes[d] == 1 && slots[d].Var == nil {
			// Single-writer constant temp: materialize once now; the
			// lane can never hold anything else at runtime.
			u[d] = cv
			c.constSlot[d] = true
			return nil
		}
		return func() { u[d] = cv }
	case netlist.OpAdd:
		return func() { u[d] = (u[s0] + u[s1]) & mk }
	case netlist.OpSub:
		return func() { u[d] = (u[s0] - u[s1]) & mk }
	case netlist.OpMul:
		return func() { u[d] = (u[s0] * u[s1]) & mk }
	case netlist.OpDiv:
		return func() {
			if dv := u[s1]; dv == 0 {
				u[d] = 0
			} else {
				u[d] = (u[s0] / dv) & mk
			}
		}
	case netlist.OpMod:
		return func() {
			if dv := u[s1]; dv == 0 {
				u[d] = 0
			} else {
				u[d] = (u[s0] % dv) & mk
			}
		}
	case netlist.OpPow:
		return func() { u[d] = netlist.PowMod(u[s0], u[s1]) & mk }
	case netlist.OpAnd:
		return func() { u[d] = u[s0] & u[s1] }
	case netlist.OpOr:
		return func() { u[d] = u[s0] | u[s1] }
	case netlist.OpXor:
		return func() { u[d] = u[s0] ^ u[s1] }
	case netlist.OpXnor:
		return func() { u[d] = ^(u[s0] ^ u[s1]) & mk }
	case netlist.OpNot:
		return func() { u[d] = ^u[s0] & mk }
	case netlist.OpNeg:
		return func() { u[d] = (-u[s0]) & mk }
	case netlist.OpLogNot:
		return func() { u[d] = netlist.B2U(u[s0] == 0) }
	case netlist.OpRedAnd:
		full := netlist.Mask(slots[s0].Width)
		return func() { u[d] = netlist.B2U(u[s0] == full) }
	case netlist.OpRedOr:
		return func() { u[d] = netlist.B2U(u[s0] != 0) }
	case netlist.OpRedXor:
		return func() { u[d] = uint64(mbits.OnesCount64(u[s0]) & 1) }
	case netlist.OpRedNand:
		full := netlist.Mask(slots[s0].Width)
		return func() { u[d] = netlist.B2U(u[s0] != full) }
	case netlist.OpRedNor:
		return func() { u[d] = netlist.B2U(u[s0] == 0) }
	case netlist.OpRedXnor:
		return func() { u[d] = uint64(^mbits.OnesCount64(u[s0]) & 1) }
	case netlist.OpEq:
		return func() { u[d] = netlist.B2U(u[s0] == u[s1]) }
	case netlist.OpNe:
		return func() { u[d] = netlist.B2U(u[s0] != u[s1]) }
	case netlist.OpLt:
		return func() { u[d] = netlist.B2U(u[s0] < u[s1]) }
	case netlist.OpLe:
		return func() { u[d] = netlist.B2U(u[s0] <= u[s1]) }
	case netlist.OpGt:
		return func() { u[d] = netlist.B2U(u[s0] > u[s1]) }
	case netlist.OpGe:
		return func() { u[d] = netlist.B2U(u[s0] >= u[s1]) }
	case netlist.OpLogAnd:
		return func() { u[d] = netlist.B2U(u[s0] != 0 && u[s1] != 0) }
	case netlist.OpLogOr:
		return func() { u[d] = netlist.B2U(u[s0] != 0 || u[s1] != 0) }
	case netlist.OpShl:
		return func() {
			if sh := u[s1]; sh >= 64 {
				u[d] = 0
			} else {
				u[d] = (u[s0] << sh) & mk
			}
		}
	case netlist.OpShr:
		return func() {
			if sh := u[s1]; sh >= 64 {
				u[d] = 0
			} else {
				u[d] = (u[s0] & mk) >> sh
			}
		}
	case netlist.OpSlice:
		lo := op.Lo
		return func() { u[d] = (u[s0] >> lo) & mk }
	case netlist.OpBitSel:
		w := uint64(slots[s0].Width)
		return func() {
			if idx := u[s1]; idx >= w {
				u[d] = 0
			} else {
				u[d] = (u[s0] >> idx) & 1
			}
		}
	case netlist.OpConcat:
		ws := make([]int, len(srcs))
		ms := make([]uint64, len(srcs))
		for i, s := range srcs {
			ws[i] = slots[s].Width
			ms[i] = netlist.Mask(ws[i])
		}
		if len(srcs) == 2 {
			a, bb := srcs[0], srcs[1]
			wb, ma, mb := ws[1], ms[0], ms[1]
			return func() { u[d] = ((u[a]&ma)<<wb | u[bb]&mb) & mk }
		}
		return func() {
			var acc uint64
			for i, s := range srcs {
				acc = acc<<ws[i] | (u[s] & ms[i])
			}
			u[d] = acc & mk
		}
	case netlist.OpRepl:
		w := slots[s0].Width
		wm := netlist.Mask(w)
		cnt := int(op.N)
		return func() {
			v := u[s0] & wm
			var acc uint64
			for i := 0; i < cnt; i++ {
				acc = acc<<w | v
			}
			u[d] = acc & mk
		}
	case netlist.OpMux:
		s2 := srcs[2]
		return func() {
			if u[s0] != 0 {
				u[d] = u[s1] & mk
			} else {
				u[d] = u[s2] & mk
			}
		}
	case netlist.OpTime:
		return func() {
			if m.NowFn != nil {
				u[d] = m.NowFn()
			} else {
				u[d] = 0
			}
		}
	case netlist.OpMemRead:
		arr := e.m.Hooks().Mem64[op.Aux]
		bound := uint64(e.prog.Mems[op.Aux].Words)
		return func() {
			if addr := u[s0]; addr >= bound {
				u[d] = 0
			} else {
				u[d] = arr[addr]
			}
		}
	case netlist.OpWrite:
		dm, s := netlist.Mask(slots[d].Width), c.sink(d)
		return func() { e.store(s, u[s0]&dm) }
	case netlist.OpWriteRng:
		w := slots[d].Width
		hi, lo := int(op.Hi), int(op.Lo)
		if hi >= w {
			hi = w - 1
		}
		if lo >= w || hi < lo {
			return func() {}
		}
		field := netlist.Mask(hi-lo+1) << lo
		srcW := int(op.Width)
		if srcW > hi-lo+1 {
			srcW = hi - lo + 1
		}
		sm, s := netlist.Mask(srcW), c.sink(d)
		return func() { e.store(s, (u[d]&^field)|((u[s0]&sm)<<lo)) }
	case netlist.OpWriteBit:
		w, s := uint64(slots[d].Width), c.sink(d)
		return func() {
			if idx := u[s1]; idx < w {
				e.store(s, u[d]&^(1<<idx)|(u[s0]&1)<<idx)
			}
		}
	case netlist.OpMemWrite:
		arr := e.m.Hooks().Mem64[op.Aux]
		bound := uint64(e.prog.Mems[op.Aux].Words)
		memMask := netlist.Mask(e.prog.Mems[op.Aux].Width)
		s := c.sink(len(slots) + int(op.Aux))
		return func() {
			if addr := u[s1]; addr < bound && arr[addr] != u[s0]&memMask {
				arr[addr] = u[s0] & memMask
				e.touch(s.w, s.m)
			}
		}
	case netlist.OpWriteNB: // a slot outside the fast buffer (fuse takes the rest)
		return func() { m.PendWriteNB(d, u[s0]) }
	case netlist.OpWriteRngNB:
		hi, lo := int(op.Hi), int(op.Lo)
		return func() { m.PendWriteRngNB(d, hi, lo, u[s0]) }
	case netlist.OpWriteBitNB:
		w := uint64(slots[d].Width)
		return func() {
			if idx := u[s1]; idx < w {
				m.PendWriteRngNB(d, int(idx), int(idx), u[s0])
			}
		}
	case netlist.OpMemWriteNB:
		aux := int(op.Aux)
		return func() { m.PendMemWriteNB(aux, int(u[s1]), u[s0]) }
	default:
		// OpDisplay, OpFinish, and anything new: the reference path.
		return func() { m.ExecOp(op) }
	}
}
