package netlist

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"cascade/internal/bits"
	"cascade/internal/elab"
	"cascade/internal/golden"
)

// TestExecOpGolden pins the reference meaning of every instruction kind,
// Machine.ExecOp, one record per kind: the op at each of goldWidths, over
// boundary operands (0, 1, all ones, the top bit alone, and an
// alternating pattern where positions matter), with operands narrower and
// wider than the op, and with a destination that is also a source — one
// of the op's width, which computes in place, and one of another width.
// A non-blocking write is committed by Update, and a two-batch case
// queues writes of every kind, by both the reference path and the
// Pend* calls, twice over one queue. Each line names the case and what
// changed: the variables that differ from the seed, the jump taken, the
// dirty flag, the edge triggers, the change hooks, the captured events.
//
// The native tier falls back to ExecOp for every wide instruction, so
// this record and the equivalence tests against internal/sim are the only
// oracles wide ops have.
func TestExecOpGolden(t *testing.T) {
	for k := OpKind(0); k <= OpHalt; k++ {
		name := goldNames[k]
		if name == "" {
			t.Fatalf("op kind %d has no name in goldNames: add it and its cases", k)
		}
		t.Run(name, func(t *testing.T) {
			var sb strings.Builder
			for wi, w := range goldWidths {
				goldCases(&sb, k, w, goldNarrow(wi), goldWide(wi))
			}
			golden.Check(t, name, sb.String())
		})
	}
	t.Run("batches", func(t *testing.T) {
		var sb strings.Builder
		goldBatches(&sb)
		golden.Check(t, "batches", sb.String())
	})
}

var goldNames = map[OpKind]string{
	OpConst: "Const", OpMove: "Move", OpAdd: "Add", OpSub: "Sub", OpMul: "Mul",
	OpDiv: "Div", OpMod: "Mod", OpPow: "Pow", OpAnd: "And", OpOr: "Or",
	OpXor: "Xor", OpXnor: "Xnor", OpNot: "Not", OpNeg: "Neg", OpLogNot: "LogNot",
	OpRedAnd: "RedAnd", OpRedOr: "RedOr", OpRedXor: "RedXor", OpRedNand: "RedNand",
	OpRedNor: "RedNor", OpRedXnor: "RedXnor", OpEq: "Eq", OpNe: "Ne", OpLt: "Lt",
	OpLe: "Le", OpGt: "Gt", OpGe: "Ge", OpLogAnd: "LogAnd", OpLogOr: "LogOr",
	OpShl: "Shl", OpShr: "Shr", OpSlice: "Slice", OpBitSel: "BitSel",
	OpConcat: "Concat", OpRepl: "Repl", OpMux: "Mux", OpTime: "Time",
	OpMemRead: "MemRead", OpJump: "Jump", OpJz: "Jz", OpWrite: "Write",
	OpWriteRng: "WriteRng", OpWriteBit: "WriteBit", OpMemWrite: "MemWrite",
	OpWriteNB: "WriteNB", OpWriteRngNB: "WriteRngNB", OpWriteBitNB: "WriteBitNB",
	OpMemWriteNB: "MemWriteNB", OpDisplay: "Display", OpFinish: "Finish", OpHalt: "Halt",
}

// goldWidths are the op widths every kind runs at: the lane edges, the
// first wide width, two whole words and a partial top word.
var goldWidths = []int{1, 63, 64, 65, 128, 200}

// goldNarrow and goldWide are the operand widths either side of op width
// goldWidths[wi] (a 1-bit op has no narrower operand).
func goldNarrow(wi int) int { return goldWidths[max(wi-1, 0)] }

func goldWide(wi int) int {
	if wi+1 < len(goldWidths) {
		return goldWidths[wi+1]
	}
	return 264
}

// goldVal returns boundary operand i of width w: 0 "0", 1 "1", 2 all ones
// "1s", 3 the top bit "top", 4 every third bit from 0 "alt".
func goldVal(w, i int) *bits.Vector {
	v := bits.New(w)
	for b := 0; b < w; b++ {
		switch {
		case i == 1 && b == 0, i == 2, i == 3 && b == w-1, i == 4 && b%3 == 0:
			v.SetBit(b, 1)
		}
	}
	return v
}

var goldValNames = []string{"0", "1", "1s", "top", "alt"}

// goldNum returns a w-bit operand holding n.
func goldNum(w int, n uint64) *bits.Vector { return bits.FromUint64(w, n) }

// goldHex names operand v in a case's label.
func goldHex(v *bits.Vector) string { return fmt.Sprintf("%d'h%s", v.Width(), goldDigits(v)) }

// goldDigits returns v's hexadecimal digits without leading zeros.
func goldDigits(v *bits.Vector) string {
	if d := strings.TrimLeft(v.Hex(), "0"); d != "" {
		return d
	}
	return "0"
}

func goldNow() uint64 { return 0xfeed_0000_0000_0042 }

// goldRig is one case's machine under construction: every slot backs a
// variable of the Flat, so the state image seeds and reads them all; two
// sequential processes watch slot watch for a rising and a falling edge.
type goldRig struct {
	flat  elab.Flat
	slots []SlotInfo
	vs    []int
	mo    []int
	mems  []MemInfo
	seed  []uint64
	watch int32
	label []string
}

func newGoldRig() *goldRig { return &goldRig{flat: elab.Flat{Name: "dut"}, watch: -1} }

func (r *goldRig) add(w, words int, seed []uint64) *elab.Var {
	v := &elab.Var{Name: fmt.Sprintf("v%d", len(r.flat.Vars)), Index: len(r.flat.Vars), Width: w, ArrayLen: words}
	r.flat.Vars = append(r.flat.Vars, v)
	r.seed = append(r.seed, seed...)
	return v
}

// slot adds a scalar variable holding x, named name in the case's label,
// and returns its slot.
func (r *goldRig) slot(name string, x *bits.Vector) int32 {
	v := r.add(x.Width(), 0, slices.Clone(x.Words()))
	r.vs, r.mo = append(r.vs, len(r.slots)), append(r.mo, -1)
	r.slots = append(r.slots, SlotInfo{Width: x.Width(), Wide: x.Width() > 64, Var: v})
	if name != "" {
		r.label = append(r.label, name)
	}
	return int32(len(r.slots) - 1)
}

// val adds a slot holding boundary operand i of width w.
func (r *goldRig) val(name string, w, i int) int32 {
	return r.slot(fmt.Sprintf("%s=%d'%s", name, w, goldValNames[i]), goldVal(w, i))
}

// dst adds a w-bit destination slot holding the alternating pattern.
func (r *goldRig) dst(w int) int32 { return r.slot(fmt.Sprintf("d=%d", w), goldVal(w, 4)) }

// mem adds a memory of four w-bit words, word j holding boundary operand
// j, and returns its index.
func (r *goldRig) mem(w int) int32 {
	var seed []uint64
	for j := 0; j < 4; j++ {
		seed = append(seed, goldVal(w, j).Words()...)
	}
	v := r.add(w, 4, seed)
	r.vs, r.mo = append(r.vs, -1), append(r.mo, len(r.mems))
	r.mems = append(r.mems, MemInfo{Var: v, Words: 4, Width: w, Wide: w > 64})
	r.label = append(r.label, fmt.Sprintf("m=%dx4", w))
	return int32(len(r.mems) - 1)
}

func (r *goldRig) machine() *Machine {
	p := &Program{Flat: &r.flat, Slots: r.slots, VarSlot: r.vs, Mems: r.mems, MemOf: r.mo, Reset: r.seed}
	if r.watch >= 0 {
		fr := []*elab.Var{r.slots[r.watch].Var}
		p.Seq = []SeqProc{{Edges: []elab.Edge{{Kind: elab.Pos}}, Frame: fr}, {Edges: []elab.Edge{{Kind: elab.Neg}}, Frame: fr}}
	}
	p.Spans = make([]Span, len(p.Seq))
	m := NewMachine(p)
	m.NowFn = goldNow
	return m
}

// goldRun is a machine under observation: what changed since the last
// look.
type goldRun struct {
	m    *Machine
	h    Hooks
	last []uint64
	chg  []int
}

func newGoldRun(m *Machine) *goldRun {
	g := &goldRun{m: m, h: m.Hooks(), last: m.GetState()}
	m.ChangeHook = func(s int) { g.chg = append(g.chg, s) }
	*g.h.CombDirty = false
	return g
}

// look renders what changed since the last look and forgets it.
func (g *goldRun) look(sb *strings.Builder) {
	l := g.m.Prog().Flat.Layout()
	img := g.m.GetState()
	for i, v := range l.Vars {
		now, was := l.Of(img, i), l.Of(g.last, i)
		n := bits.WordsFor(v.Width)
		for j := 0; j*n < len(now); j++ {
			if slices.Equal(now[j*n:(j+1)*n], was[j*n:(j+1)*n]) {
				continue
			}
			x := bits.Wrap(v.Width, now[j*n:(j+1)*n])
			if hex := goldDigits(&x); v.IsArray() {
				fmt.Fprintf(sb, " %s[%d]=%s", v.Name, j, hex)
			} else {
				fmt.Fprintf(sb, " %s=%s", v.Name, hex)
			}
		}
	}
	g.last = img
	if *g.h.CombDirty {
		sb.WriteString(" dirty")
	}
	for i, on := range g.h.SeqTrig {
		if on {
			fmt.Fprintf(sb, " trig%d", i)
		}
	}
	if *g.h.SeqPending {
		sb.WriteString(" seqpending")
	}
	if len(g.chg) > 0 {
		fmt.Fprintf(sb, " chg=%v", g.chg)
	}
	for _, ev := range g.m.DrainEvents() {
		fmt.Fprintf(sb, " event{%q nl=%v finish=%v}", ev.Text, ev.Newline, ev.Finish)
	}
	if g.m.Finished() {
		sb.WriteString(" finished")
	}
	*g.h.CombDirty, *g.h.SeqPending, g.chg = false, false, nil
	clear(g.h.SeqTrig)
}

// run executes in on a fresh machine of r, then commits what it queued,
// and records the case.
func (r *goldRig) run(sb *strings.Builder, in Instr) {
	if in.Kind <= OpMemRead || in.Kind >= OpWrite && in.Kind <= OpWriteBitNB && in.Kind != OpMemWrite {
		r.watch = in.Dst
	}
	m := r.machine()
	g := newGoldRun(m)
	fmt.Fprintf(sb, "w=%d %s:", in.Width, strings.Join(r.label, " "))
	if m.ExecOp(&in) {
		sb.WriteString(" jump")
	}
	g.look(sb)
	if m.HasUpdates() {
		sb.WriteString(" | update:")
		m.Update()
		g.look(sb)
	}
	sb.WriteByte('\n')
}

func goldInstr(k OpKind, w int, dst int32, srcs ...int32) Instr {
	return Instr{Op: Op{Kind: k, Width: int32(w), Dst: dst, Const: -1}, Srcs: srcs}
}

// goldPairs are the value pairs mixed widths and aliases run: all ones
// twice (every carry), all ones and one, the top bit and all ones, one and
// the top bit.
var goldPairs = [][2]int{{2, 2}, {2, 1}, {3, 2}, {1, 3}}

// goldCases records the cases of kind k at op width w, whose narrower and
// wider operands are n and wd bits.
func goldCases(sb *strings.Builder, k OpKind, w, n, wd int) {
	switch k {
	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpAnd, OpOr, OpXor, OpXnor,
		OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpLogAnd, OpLogOr:
		rw := w // the result width: a comparison's is one bit
		if k >= OpEq {
			rw = 1
		}
		binary := func(xw, yw, xi, yi, alias int) {
			r := newGoldRig()
			x, y := r.val("x", xw, xi), r.val("y", yw, yi)
			d := [3]int32{-1, x, y}[alias]
			if alias == 0 {
				d = r.dst(rw)
			} else {
				r.label = append(r.label, "d="+[]string{"", "x", "y"}[alias])
			}
			r.run(sb, goldInstr(k, rw, d, x, y))
		}
		for xi := 0; xi < 4; xi++ {
			for yi := 0; yi < 4; yi++ {
				binary(w, w, xi, yi, 0)
			}
		}
		for _, p := range goldPairs {
			binary(n, wd, p[0], p[1], 0)
			binary(wd, n, p[0], p[1], 0)
			binary(w, w, p[0], p[1], 1)
			binary(w, w, p[0], p[1], 2)
			binary(wd, n, p[0], p[1], 1)
			binary(n, wd, p[0], p[1], 2)
		}
		for xi := 0; xi < 4; xi++ { // one slot both sources and the result
			r := newGoldRig()
			x := r.val("x", w, xi)
			r.label = append(r.label, "d=y=x")
			r.run(sb, goldInstr(k, rw, x, x, x))
		}
	case OpPow, OpShl, OpShr:
		// The right operand is self-determined: amounts around the op
		// width and the lane edge, and whole-width extremes.
		amounts := func(yield func(*bits.Vector, string)) {
			for _, a := range []uint64{0, 1, uint64(w - 1), uint64(w), uint64(w + 1), 63, 64, 65} {
				yield(goldNum(64, a), fmt.Sprintf("y=64'd%d", a))
			}
			yield(goldVal(65, 2), "y=65'1s")
			yield(goldVal(200, 3), "y=200'top")
		}
		for _, c := range []struct{ xw, xi int }{{w, 0}, {w, 1}, {w, 2}, {w, 3}, {n, 2}, {n, 3}, {wd, 2}, {wd, 3}, {wd, 4}} {
			amounts(func(a *bits.Vector, name string) {
				r := newGoldRig()
				x, y := r.val("x", c.xw, c.xi), r.slot(name, a)
				r.run(sb, goldInstr(k, w, r.dst(w), x, y))
			})
		}
		for _, xw := range []int{w, wd} {
			for _, a := range []uint64{1, uint64(w - 1), 64} {
				r := newGoldRig()
				x, y := r.val("x", xw, 2), r.slot(fmt.Sprintf("y=64'd%d", a), goldNum(64, a))
				r.label = append(r.label, "d=x")
				r.run(sb, goldInstr(k, w, x, x, y))
			}
		}
		for yi := 0; yi < 4; yi++ {
			r := newGoldRig()
			x, y := r.val("x", w, 4), r.val("y", w, yi)
			r.label = append(r.label, "d=y")
			r.run(sb, goldInstr(k, w, y, x, y))
		}
	case OpMove, OpNot, OpNeg:
		for _, xw := range []int{n, w, wd} {
			for xi := 0; xi < 5; xi++ {
				r := newGoldRig()
				x := r.val("x", xw, xi)
				r.run(sb, goldInstr(k, w, r.dst(w), x))
			}
			for xi := 0; xi < 5; xi++ {
				r := newGoldRig()
				x := r.val("x", xw, xi)
				r.label = append(r.label, "d=x")
				r.run(sb, goldInstr(k, w, x, x))
			}
		}
	case OpLogNot, OpRedAnd, OpRedOr, OpRedXor, OpRedNand, OpRedNor, OpRedXnor:
		for xi := 0; xi < 5; xi++ {
			r := newGoldRig()
			x := r.val("x", w, xi)
			r.run(sb, goldInstr(k, 1, r.dst(1), x))
			r = newGoldRig()
			x = r.val("x", w, xi)
			r.label = append(r.label, "d=x")
			r.run(sb, goldInstr(k, 1, x, x))
		}
	case OpConst:
		for _, vw := range []int{w, n, wd} {
			for vi := 0; vi < 5; vi++ {
				r := newGoldRig()
				in := goldInstr(k, w, r.dst(w))
				in.Value = goldVal(vw, vi)
				r.label = append(r.label, fmt.Sprintf("value=%d'%s", vw, goldValNames[vi]))
				r.run(sb, in)
			}
		}
	case OpTime:
		for _, now := range []bool{true, false} {
			r := newGoldRig()
			in := goldInstr(k, 64, r.dst(64))
			m := r.machine()
			if !now {
				m.NowFn = nil
				r.label = append(r.label, "no clock")
			}
			g := newGoldRun(m)
			fmt.Fprintf(sb, "w=64 %s:", strings.Join(r.label, " "))
			m.ExecOp(&in)
			g.look(sb)
			sb.WriteByte('\n')
		}
		r := newGoldRig()
		d := r.dst(w)
		r.run(sb, goldInstr(k, w, d))
	case OpSlice:
		seen := map[[2]int]bool{}
		for _, lo := range []int{0, 1, 63, 64, w - 1, w, w + 1} {
			for _, sw := range []int{1, 63, 64, 65, w} {
				if lo < 0 || seen[[2]int{lo, sw}] {
					continue
				}
				seen[[2]int{lo, sw}] = true
				for _, xi := range []int{2, 4} {
					r := newGoldRig()
					x := r.val("x", w, xi)
					r.label = append(r.label, fmt.Sprintf("[%d:%d]", lo+sw-1, lo))
					in := goldInstr(k, sw, r.dst(sw), x)
					in.Hi, in.Lo = int32(lo+sw-1), int32(lo)
					r.run(sb, in)
				}
				r := newGoldRig()
				x := r.val("x", w, 4)
				r.label = append(r.label, fmt.Sprintf("[%d:%d] d=x", lo+sw-1, lo))
				in := goldInstr(k, sw, x, x)
				in.Hi, in.Lo = int32(lo+sw-1), int32(lo)
				r.run(sb, in)
			}
		}
	case OpBitSel:
		idx := []*bits.Vector{goldNum(64, 0), goldNum(64, 1), goldNum(64, uint64(w-1)), goldNum(64, uint64(w)),
			goldNum(64, uint64(w+1)), goldNum(64, 64), goldVal(65, 2), goldVal(200, 3)}
		for _, xi := range []int{2, 4} {
			for _, iv := range idx {
				r := newGoldRig()
				x, i := r.val("x", w, xi), r.slot("i="+goldHex(iv), iv)
				r.run(sb, goldInstr(k, 1, r.dst(1), x, i))
			}
		}
		for _, iv := range idx[:3] {
			r := newGoldRig()
			x, i := r.val("x", w, 4), r.slot("i="+goldHex(iv), iv)
			r.label = append(r.label, "d=x")
			r.run(sb, goldInstr(k, 1, x, x, i))
			r = newGoldRig()
			x, i = r.val("x", w, 4), r.slot("i="+goldHex(iv), iv)
			r.label = append(r.label, "d=i")
			r.run(sb, goldInstr(k, 1, i, x, i))
		}
	case OpConcat:
		for _, ws := range [][]int{{w}, {w, 1}, {1, w}, {w, w}, {n, w, wd}, {63, w, 65, 1}} {
			for _, xi := range []int{2, 3, 4} {
				for alias := -1; alias < len(ws); alias++ {
					r := newGoldRig()
					var srcs []int32
					total := 0
					for j, sw := range ws {
						srcs = append(srcs, r.val(fmt.Sprintf("s%d", j), sw, (xi+j)%5))
						total += sw
					}
					d := int32(-1)
					if alias < 0 {
						d = r.dst(total)
					} else {
						d = srcs[alias]
						r.label = append(r.label, fmt.Sprintf("d=s%d", alias))
					}
					r.run(sb, goldInstr(k, total, d, srcs...))
				}
			}
		}
	case OpRepl:
		for _, cnt := range []int{1, 2, 3} {
			for _, xi := range []int{1, 3, 4} {
				for _, alias := range []bool{false, true} {
					r := newGoldRig()
					x := r.val("x", w, xi)
					r.label = append(r.label, fmt.Sprintf("n=%d", cnt))
					d := x
					if alias {
						r.label = append(r.label, "d=x")
					} else {
						d = r.dst(w * cnt)
					}
					in := goldInstr(k, w*cnt, d, x)
					in.N = int32(cnt)
					r.run(sb, in)
				}
			}
		}
	case OpMux:
		for _, c := range []struct{ cw, ci int }{{1, 0}, {1, 1}, {65, 0}, {65, 3}} {
			for _, ab := range [][2]int{{w, w}, {n, wd}, {wd, n}} {
				for alias := -1; alias < 3; alias++ {
					r := newGoldRig()
					cond := r.val("c", c.cw, c.ci)
					a, b := r.val("a", ab[0], 2), r.val("b", ab[1], 4)
					srcs := []int32{cond, a, b}
					d := int32(-1)
					if alias < 0 {
						d = r.dst(w)
					} else {
						d = srcs[alias]
						r.label = append(r.label, "d="+[]string{"c", "a", "b"}[alias])
					}
					r.run(sb, goldInstr(k, w, d, srcs...))
				}
			}
		}
	case OpMemRead:
		addrs := []*bits.Vector{goldNum(8, 0), goldNum(8, 2), goldNum(8, 3), goldNum(8, 4), goldVal(65, 2), goldVal(200, 3)}
		for _, av := range addrs {
			r := newGoldRig()
			mi := r.mem(w)
			a := r.slot("a="+goldHex(av), av)
			in := goldInstr(k, w, r.dst(w), a)
			in.Aux = mi
			r.run(sb, in)
		}
		for _, av := range addrs[:4] {
			r := newGoldRig()
			mi := r.mem(w)
			a := r.slot("a="+goldHex(goldNum(w, av.Uint64())), goldNum(w, av.Uint64()))
			r.label = append(r.label, "d=a")
			in := goldInstr(k, w, a, a)
			in.Aux = mi
			r.run(sb, in)
		}
	case OpJump, OpHalt:
		if w == goldWidths[0] {
			newGoldRig().run(sb, goldInstr(k, 0, 0))
		}
	case OpJz:
		for xi := 0; xi < 5; xi++ {
			r := newGoldRig()
			c := r.val("c", w, xi)
			r.run(sb, goldInstr(k, 0, 0, c))
		}
	case OpWrite, OpWriteNB:
		for _, xw := range []int{n, w, wd} {
			for xi := 0; xi < 5; xi++ {
				r := newGoldRig()
				d, x := r.dst(w), r.val("x", xw, xi)
				r.run(sb, goldInstr(k, w, d, x))
			}
		}
		r := newGoldRig()
		d := r.dst(w)
		r.label = append(r.label, "x=d")
		r.run(sb, goldInstr(k, w, d, d))
	case OpWriteRng, OpWriteRngNB:
		seen := map[[2]int]bool{}
		for _, hl := range [][2]int{{0, 0}, {w - 1, 0}, {w - 1, w - 1}, {w + 3, w - 2}, {64, 1}, {w + 70, 0}, {w + 1, w}} {
			hi, lo := hl[0], max(hl[1], 0)
			if seen[[2]int{hi, lo}] || hi < lo {
				continue
			}
			seen[[2]int{hi, lo}] = true
			for _, xi := range []int{0, 2, 3} {
				r := newGoldRig()
				d, x := r.dst(w), r.val("x", hi-lo+1, xi)
				r.label = append(r.label, fmt.Sprintf("[%d:%d]", hi, lo))
				in := goldInstr(k, hi-lo+1, d, x)
				in.Hi, in.Lo = int32(hi), int32(lo)
				r.run(sb, in)
			}
			r := newGoldRig()
			d := r.dst(w)
			r.label = append(r.label, fmt.Sprintf("[%d:%d] x=d", hi, lo))
			in := goldInstr(k, hi-lo+1, d, d)
			in.Hi, in.Lo = int32(hi), int32(lo)
			r.run(sb, in)
		}
	case OpWriteBit, OpWriteBitNB:
		idx := []*bits.Vector{goldNum(64, 0), goldNum(64, 1), goldNum(64, uint64(w-1)), goldNum(64, uint64(w)), goldVal(65, 2)}
		for _, iv := range idx {
			for _, xv := range []*bits.Vector{goldNum(1, 0), goldNum(1, 1), goldVal(65, 3), goldVal(65, 2)} {
				r := newGoldRig()
				d := r.dst(w)
				x, i := r.slot("x="+goldHex(xv), xv), r.slot("i="+goldHex(iv), iv)
				r.run(sb, goldInstr(k, 1, d, x, i))
			}
		}
		for _, iv := range idx[:3] {
			r := newGoldRig()
			d := r.dst(w)
			i := r.slot("i="+goldHex(iv), iv)
			r.label = append(r.label, "x=d")
			r.run(sb, goldInstr(k, 1, d, d, i))
		}
	case OpMemWrite, OpMemWriteNB:
		addrs := []*bits.Vector{goldNum(8, 0), goldNum(8, 3), goldNum(8, 4), goldVal(65, 2), goldVal(200, 3)}
		for _, av := range addrs {
			for _, xv := range []*bits.Vector{goldVal(w, 2), goldVal(w, 1), goldVal(wd, 3), goldVal(n, 2)} {
				r := newGoldRig()
				mi := r.mem(w)
				x, a := r.slot("x="+goldHex(xv), xv), r.slot("a="+goldHex(av), av)
				in := goldInstr(k, w, 0, x, a)
				in.Aux = mi
				r.run(sb, in)
			}
		}
	case OpDisplay:
		for _, format := range []string{"", "a=%d b=%h c=%b"} {
			for _, ws := range [][2]int{{w, w}, {n, wd}} {
				for _, xi := range []int{2, 3, 4} {
					for _, same := range []bool{false, true} {
						r := newGoldRig()
						a := r.val("a", ws[0], xi)
						b := a
						if same {
							r.label = append(r.label, "b=a")
						} else {
							b = r.val("b", ws[1], (xi+1)%5)
						}
						r.label = append(r.label, fmt.Sprintf("format=%q", format))
						in := goldInstr(k, 0, 0, a, b)
						in.Task = &Task{Src: &elab.SysTask{Kind: elab.TaskDisplay, Format: format}}
						if xi == 4 {
							in.Task.Src.Kind = elab.TaskWrite
						}
						r.run(sb, in)
					}
				}
			}
		}
	case OpFinish:
		if w == goldWidths[0] {
			newGoldRig().run(sb, goldInstr(k, 0, 0))
		}
	default:
		panic(fmt.Sprintf("op kind %d has no golden cases", k))
	}
}

// goldBatches queues writes of every non-blocking kind, by ExecOp and by
// the Pend* calls a compiled backend uses, over two update batches on one
// machine: the second batch's entries follow the first's, of other widths
// and forms.
func goldBatches(sb *strings.Builder) {
	r := newGoldRig()
	wide, narrow, mid := r.dst(200), r.dst(40), r.dst(70)
	wm, nm := r.mem(130), r.mem(16)
	a, b, c := r.val("a", 200, 2), r.val("b", 64, 3), r.val("c", 1, 1)
	i5, big := r.slot("i=5", goldNum(8, 5)), r.slot("i=200'top", goldVal(200, 3))
	r.watch = mid
	m := r.machine()
	g := newGoldRun(m)
	fmt.Fprintf(sb, "%s\n", strings.Join(r.label, " "))
	nb := func(k OpKind, w int, dst int32, hi, lo int, srcs ...int32) {
		in := goldInstr(k, w, dst, srcs...)
		in.Hi, in.Lo = int32(hi), int32(lo)
		if k == OpMemWriteNB {
			in.Aux, in.Dst = dst, 0
		}
		m.ExecOp(&in)
	}
	batch := func(name string, queue func()) {
		queue()
		fmt.Fprintf(sb, "%s: updates=%v", name, m.HasUpdates())
		g.look(sb)
		m.Update()
		fmt.Fprintf(sb, " | update: updates=%v", m.HasUpdates())
		g.look(sb)
		sb.WriteByte('\n')
	}
	batch("1", func() {
		nb(OpWriteNB, 200, wide, 0, 0, a)
		nb(OpWriteRngNB, 6, mid, 68, 63, a)
		nb(OpWriteBitNB, 1, narrow, 0, 0, c, i5)
		nb(OpMemWriteNB, 130, wm, 0, 0, a, i5)
		nb(OpMemWriteNB, 130, wm, 0, 0, b, c)
		nb(OpMemWriteNB, 16, nm, 0, 0, b, big)
		m.PendWriteNB(int(narrow), 0xdead_beef_cafe)
	})
	batch("2", func() {
		m.PendWriteNB(int(narrow), 7)
		m.PendWriteRngNB(int(narrow), 9, 2, 0xff)
		nb(OpWriteNB, 200, wide, 0, 0, c)
		m.PendMemWriteNB(int(nm), 2, 0x1_2345)
		nb(OpWriteRngNB, 70, mid, 69, 0, b)
		nb(OpWriteBitNB, 1, mid, 0, 0, c, big)
		m.PendMemWriteNB(int(nm), 9, 1)
		nb(OpWriteNB, 40, narrow, 0, 0, a)
	})
	batch("3", func() {
		m.PendWriteRngNB(int(narrow), 39, 32, 0x1a5)
		nb(OpWriteRngNB, 1, mid, 0, 0, c)
	})
	batch("4 empty", func() {})
}
