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
// are CSR tables filled in one counting pass from (row, value) pairs,
// one builder compiles every process with its slices reused, and the
// processes' blocks share two exactly sized arrays. What a compile
// allocates beyond what the engine keeps is a few arrays sized to the
// program (TestNativeCompileAllocBudget).
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
	edges rel

	// Fast non-blocking commit buffer. A slot qualifies when every
	// non-blocking write to it anywhere in the program is a narrow
	// full-slot OpWriteNB: such slots never appear in the machine's
	// pending queue, so their writes can be coalesced into a dense
	// last-write-wins shadow word (masked to the slot width when it is
	// written) instead of an appended pending record. Commit order
	// relative to the machine queue is unobservable — the two buffers
	// cover disjoint slots, and update-phase commits don't run processes
	// in between.
	nbOn    []bool
	nbVal   []uint64
	nbDirty []int

	// Sensitivity lists: the comb units whose reachable code reads each
	// variable slot / memory. Changes mark only the reading units, so a
	// clock toggle that feeds nothing but edge detectors costs no
	// combinational pass at all. allDirty falls back to a full pass
	// after wholesale state replacement.
	slotUnits rel
	memUnits  rel
	combMark  []bool
	combAny   bool
	allDirty  bool

	comb []proc
	seq  []proc

	nativeOps uint64
}

// rel is a compressed slot -> index-list relation (CSR). The dense
// [][]int it replaces cost a 24-byte header per slot, nearly all empty,
// for as long as the engine lives.
type rel struct {
	off  []uint32 // row i is list[off[i]:off[i+1]]
	list []int32
}

// pair is one (row, value) entry of a relation being built.
type pair struct{ row, val int32 }

// newRel builds the relation of nrows rows that holds pairs, each row's
// values in the order pairs lists them: a counting pass sizes the rows,
// and placing each value advances its row's start to the next row's, so
// the starts are shifted back once at the end.
func newRel(nrows int, pairs []pair) rel {
	r := rel{off: make([]uint32, nrows+1), list: make([]int32, len(pairs))}
	for _, p := range pairs {
		r.off[p.row+1]++
	}
	for i := 0; i < nrows; i++ {
		r.off[i+1] += r.off[i]
	}
	for _, p := range pairs {
		r.list[r.off[p.row]] = p.val
		r.off[p.row]++
	}
	if nrows > 0 {
		copy(r.off[1:nrows], r.off[:nrows-1])
		r.off[0] = 0
	}
	return r
}

func (r rel) row(i int) []int32 { return r.list[r.off[i]:r.off[i+1]] }

// compiler is the state only compilation needs; nothing in the compiled
// closures references it, so it is garbage once Compile returns.
type compiler struct {
	e *Eval
	b builder // compiles every process in turn, its slices reused

	// nbOK marks the slots eligible for the fast non-blocking buffer.
	nbOK []bool

	// Whole-program def/use counts, driving two compile-time rewrites:
	// constant hoisting (a single-writer OpConst temp is materialized
	// once at compile time and emits no closure) and compare/branch
	// fusion (a single-use comparison feeding the Jz that immediately
	// follows it folds into the block terminator).
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
		nbOn:       make([]bool, len(p.Slots)),
		nbVal:      make([]uint64, len(p.Slots)),
		combMark:   make([]bool, len(p.Comb)),
		allDirty:   true,
	}
	c := &compiler{
		e:         e,
		nbOK:      make([]bool, len(p.Slots)),
		writes:    make([]int32, len(p.Slots)),
		reads:     make([]int32, len(p.Slots)),
		constSlot: make([]bool, len(p.Slots)),
		seen:      make([]bool, len(p.Code)+1),
		leader:    make([]bool, len(p.Code)+1),
		block:     make([]int32, len(p.Code)+1),
	}
	c.b.c = c
	for i, s := range p.Slots {
		c.nbOK[i] = !s.Wide
	}
	for i := range p.Code {
		op := &p.Code[i]
		switch op.Kind {
		case netlist.OpWriteNB:
			if op.Wide {
				c.nbOK[op.Dst] = false
			}
		case netlist.OpWriteRngNB, netlist.OpWriteBitNB:
			c.nbOK[op.Dst] = false
		}
		for _, s := range p.Srcs(op) {
			c.reads[s]++
		}
		if opWritesDst(op.Kind) {
			c.writes[op.Dst]++
		}
	}
	c.relations()
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

// relations builds the compiled form's three relations, each from its
// (row, value) pairs: the sequential processes watching each slot for an
// edge (row 2*slot+1 posedge, 2*slot negedge, in trigger order), and the
// comb units whose reachable code reads each slot and each memory.
func (c *compiler) relations() {
	e, p := c.e, c.e.prog
	var pairs []pair
	for pi, sp := range p.Seq {
		for _, ed := range sp.Edges {
			row := 2 * int32(p.VarSlot[ed.Var.Index])
			switch ed.Kind {
			case elab.Pos:
				pairs = append(pairs, pair{row + 1, int32(pi)})
			case elab.Neg:
				pairs = append(pairs, pair{row, int32(pi)})
			}
		}
	}
	e.edges = newRel(2*len(p.Slots), pairs)

	// A unit reads a slot or memory once however often its code does:
	// last[x] is 1 + the unit that last listed slot x (memory k at
	// len(Slots)+k).
	last := make([]int32, len(p.Slots)+len(p.Mems))
	pairs = pairs[:0]
	var memPairs []pair
	for ui, cu := range p.Comb {
		stamp := int32(ui + 1)
		c.reach(cu.Entry, func(_ int, op *netlist.Op) {
			for _, src := range p.Srcs(op) {
				if last[src] != stamp {
					last[src] = stamp
					pairs = append(pairs, pair{src, int32(ui)})
				}
			}
			if k := len(p.Slots) + int(op.Aux); op.Kind == netlist.OpMemRead && last[k] != stamp {
				last[k] = stamp
				memPairs = append(memPairs, pair{op.Aux, int32(ui)})
			}
		})
	}
	e.slotUnits, e.memUnits = newRel(len(p.Slots), pairs), newRel(len(p.Mems), memPairs)
}

// onChange is the machine's ChangeHook: slow-path state changes mark
// the comb units that read the changed slot or memory.
func (e *Eval) onChange(slot int) {
	if slot >= 0 {
		e.markUnits(e.slotUnits.row(slot))
	} else {
		e.markUnits(e.memUnits.row(-1 - slot))
	}
}

func (e *Eval) markUnits(units []int32) {
	for _, ui := range units {
		if !e.combMark[ui] {
			e.combMark[ui] = true
			e.combAny = true
		}
	}
}

// InvalidateAll schedules a full combinational pass (state replaced
// wholesale, e.g. after a SetState handoff).
func (e *Eval) InvalidateAll() {
	e.allDirty = true
	*e.combDirty = true
}

// HasActive reports pending evaluation work (there_are_evals).
func (e *Eval) HasActive() bool { return *e.combDirty || *e.seqPending }

// Evaluate mirrors Machine.Evaluate over the shared dirty/trigger
// state: run triggered sequential processes, then settle combinational
// logic to a fixpoint.
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
			if e.allDirty {
				e.allDirty = false
				e.combAny = false
				for i := range e.comb {
					e.combMark[i] = false
					e.nativeOps += e.comb[i].run()
				}
			} else if e.combAny {
				e.combAny = false
				for i := range e.comb {
					if e.combMark[i] {
						e.combMark[i] = false
						e.nativeOps += e.comb[i].run()
					}
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
func (e *Eval) HasUpdates() bool { return len(e.nbDirty) > 0 || e.m.HasUpdates() }

// Update commits queued non-blocking writes: the machine's pending
// queue (slow-path records) plus the native tier's coalesced shadow
// words.
func (e *Eval) Update() {
	if e.m.HasUpdates() {
		e.m.Update()
	}
	for _, d := range e.nbDirty {
		e.nbOn[d] = false
		e.writeSlot(d, e.nbVal[d])
	}
	e.nbDirty = e.nbDirty[:0]
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
// specialized for the short blocks branchy netlists produce, and appends
// the steps and their bills to the compiler's.
func (b *builder) finalize() {
	c := b.c
	for i := range b.blocks {
		blk := &b.blocks[i]
		term := blk.next
		c.bn = append(c.bn, blk.n)
		var step func() int
		switch len(blk.ops) {
		case 0:
			step = term
		case 1:
			f0 := blk.ops[0]
			step = func() int { f0(); return term() }
		case 2:
			f0, f1 := blk.ops[0], blk.ops[1]
			step = func() int { f0(); f1(); return term() }
		case 3:
			f0, f1, f2 := blk.ops[0], blk.ops[1], blk.ops[2]
			step = func() int { f0(); f1(); f2(); return term() }
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
	ops := b.ops
	var n uint64
	// prev/prev2 shadow ops[len-1]/ops[len-2] for terminator fusion.
	var prev, prev2 *netlist.Op
	cur := pc
	for {
		op := &b.code[cur]
		n++
		switch op.Kind {
		case netlist.OpHalt:
			b.blocks[bi].next = func() int { return -1 }
		case netlist.OpJump:
			t := b.blockAt(int(op.Target))
			b.blocks[bi].next = func() int { return t }
		case netlist.OpJz:
			var next func() int
			if prev != nil && b.c.canFuseJz(prev, op) {
				tt, ff := b.blockAt(int(op.Target)), b.blockAt(cur+1)
				// A LogNot between a comparison and its branch inverts
				// the sense: fold all three by swapping the targets.
				if prev.Kind == netlist.OpLogNot && prev2 != nil &&
					b.c.canFuseCmpInto(prev2, prev) {
					if next = b.c.e.fuseJz(prev2, ff, tt); next != nil {
						ops = ops[:len(ops)-2]
						if prev2.Kind == netlist.OpEq {
							b.metas[bi] = eqMeta{valid: true, a: b.c.src(prev2, 0), b: b.c.src(prev2, 1), eqT: tt, neT: ff}
						}
					}
				}
				if next == nil {
					if next = b.c.e.fuseJz(prev, tt, ff); next != nil {
						ops = ops[:len(ops)-1]
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
			if fn := b.c.compileOp(op); fn != nil {
				ops = append(ops, fn)
				prev2, prev = prev, op
			} else {
				n-- // hoisted to compile time, nothing to execute or bill
				prev2, prev = nil, nil
			}
			cur++
			if b.c.leader[cur] {
				k := b.blockAt(cur)
				b.blocks[bi].next = func() int { return k }
				b.seal(bi, ops, start, n)
				return
			}
			continue
		}
		b.seal(bi, ops, start, n)
		return
	}
}

// seal records block bi's closures, ops[start:], and what it bills.
func (b *builder) seal(bi int, ops []func(), start int, n uint64) {
	b.ops = ops
	b.blocks[bi].ops, b.blocks[bi].n = ops[start:len(ops):len(ops)], n
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

// writeSlot stores into a narrow variable-backed slot with the
// machine's change-detection semantics: any change marks
// combinational logic dirty; an LSB transition fires the precompiled
// edge lists.
func (e *Eval) writeSlot(d int, nv uint64) {
	old := e.u64[d]
	if old == nv {
		return
	}
	e.u64[d] = nv
	if units := e.slotUnits.row(d); len(units) != 0 {
		e.markUnits(units)
		*e.combDirty = true
	}
	if old&1 != nv&1 {
		for _, p := range e.edges.row(2*d + int(nv&1)) {
			e.seqTrig[p] = true
			*e.seqPending = true
		}
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
	case netlist.OpMove:
		return func() { u[d] = u[s0] & mk }
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
		dm := netlist.Mask(slots[d].Width)
		return func() { e.writeSlot(d, u[s0]&dm) }
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
		sm := netlist.Mask(srcW)
		return func() {
			nv := (u[d] &^ field) | ((u[s0] & sm) << lo)
			e.writeSlot(d, nv)
		}
	case netlist.OpWriteBit:
		w := uint64(slots[d].Width)
		return func() {
			if idx := u[s1]; idx < w {
				nv := u[d]&^(1<<idx) | (u[s0]&1)<<idx
				e.writeSlot(d, nv)
			}
		}
	case netlist.OpMemWrite:
		arr := e.m.Hooks().Mem64[op.Aux]
		bound := uint64(e.prog.Mems[op.Aux].Words)
		memMask := netlist.Mask(e.prog.Mems[op.Aux].Width)
		dirty := e.combDirty
		aux := int(op.Aux)
		return func() {
			addr := u[s1]
			if addr >= bound {
				return
			}
			nv := u[s0] & memMask
			if arr[addr] != nv {
				arr[addr] = nv
				if units := e.memUnits.row(aux); len(units) != 0 {
					e.markUnits(units)
					*dirty = true
				}
			}
		}
	case netlist.OpWriteNB:
		if c.nbOK[d] {
			on, val := e.nbOn, e.nbVal
			dm := netlist.Mask(slots[d].Width)
			return func() {
				if !on[d] {
					on[d] = true
					e.nbDirty = append(e.nbDirty, d)
				}
				val[d] = u[s0] & dm
			}
		}
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
