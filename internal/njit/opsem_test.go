package njit

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cascade/internal/bits"
	"cascade/internal/elab"
	"cascade/internal/imagetest"
	"cascade/internal/netlist"
	"cascade/internal/sim"
)

// Every netlist.OpKind has two implementations: the reference
// (netlist.Machine.ExecOp, the oracle of every equivalence test and the
// compiled form's per-instruction fallback) and njit's compiled
// closure. TestOpSemanticsAgree holds them together kind by kind, on
// one-unit programs around the instruction, laid out the way
// netlist.Compile links them (opProg), over random and boundary
// operands.

// opWidths are the slot widths operands are drawn from: the lane
// boundaries (1, 63, 64), the first wide width, and a wide width that
// spans two words with a partial top word.
var opWidths = []int{1, 2, 8, 63, 64, 65, 100}

// opProg builds a one-unit program around the instruction under test,
// in the form netlist.Compile links one: a combinational span whose code
// numbers its temporaries from 0 and names a variable or memory by -1
// minus its place in the span's variable list, over a program whose
// variables' slots come first and its temporaries after them. The
// builder hands out references in that form (temp, vslot, mem); link
// lays the program out, its reset image holding the operands.
type opProg struct {
	p    netlist.Program
	code netlist.UnitCode
	vars []int32 // the span's variable list (Program.Vars's encoding)
	flat elab.Flat
	// nvars is how many of flat's variables the program declares; link
	// adds one past them for each temporary.
	nvars int
	// fill maps a reference to the value loaded before evaluation.
	fill map[int32]*bits.Vector
	// watch lists the references compared afterwards; nil compares every
	// slot. A comparison the compiler fuses into its branch leaves the
	// temporary unwritten, so branch forms watch only the result.
	watch []int32
	note  string
}

func newOpProg() *opProg {
	return &opProg{flat: elab.Flat{Name: "dut"}, fill: map[int32]*bits.Vector{}}
}

// temp adds a temporary, vslot a scalar variable and mem a memory.
func (b *opProg) temp(w int) int32 {
	b.code.TempWidths = append(b.code.TempWidths, int32(w))
	return int32(len(b.code.TempWidths) - 1)
}

func (b *opProg) vslot(w int) int32 { return b.variable(w, 0) }

func (b *opProg) mem(words, w int) int32 { return b.variable(w, words) }

func (b *opProg) variable(w, words int) int32 {
	v := &elab.Var{Name: fmt.Sprintf("v%d", len(b.flat.Vars)), Index: len(b.flat.Vars), Width: w, ArrayLen: words}
	b.flat.Vars = append(b.flat.Vars, v)
	b.vars = append(b.vars, int32(v.Index<<1))
	return int32(-len(b.vars))
}

// width returns the width of reference s.
func (b *opProg) width(s int32) int {
	if s < 0 {
		return b.flat.Vars[b.vars[-1-s]>>1].Width
	}
	return int(b.code.TempWidths[s])
}

// src adds a temporary holding v.
func (b *opProg) src(v *bits.Vector) int32 {
	i := b.temp(v.Width())
	b.fill[i] = v
	return i
}

// emit appends op reading srcs, flagged Wide by the synthesizer's rule:
// its result or any operand is wider than 64 bits. A write records its
// variable's entry as written.
func (b *opProg) emit(op netlist.Op, srcs ...int32) int {
	op.Wide = op.Width > 64
	switch op.Kind {
	case netlist.OpJump, netlist.OpJz, netlist.OpDisplay, netlist.OpFinish, netlist.OpHalt:
	case netlist.OpMemWrite, netlist.OpMemWriteNB:
		b.vars[-1-op.Aux] |= 1
	default:
		op.Wide = op.Wide || b.width(op.Dst) > 64
		if op.Dst < 0 {
			b.vars[-1-op.Dst] |= 1
		}
	}
	op.Src, op.NSrcs, op.Const = int32(len(b.code.Operands)), int32(len(srcs)), -1
	for _, s := range srcs {
		op.Wide = op.Wide || b.width(s) > 64
		b.code.Operands = append(b.code.Operands, s)
	}
	b.code.Ops = append(b.code.Ops, op)
	return len(b.code.Ops) - 1
}

// constant appends d = v.
func (b *opProg) constant(d int32, v *bits.Vector) {
	pc := b.emit(netlist.Op{Kind: netlist.OpConst, Dst: d, Width: int32(v.Width())})
	b.code.Ops[pc].Const = int32(len(b.code.Consts))
	b.code.Consts = append(b.code.Consts, v)
}

func (b *opProg) halt() { b.emit(netlist.Op{Kind: netlist.OpHalt}) }

// branch appends "if cond is zero the result is 2, else 1" and watches
// only the result.
func (b *opProg) branch(cond int32) {
	d := b.temp(8)
	jz := b.emit(netlist.Op{Kind: netlist.OpJz}, cond)
	b.constant(d, bits.FromUint64(8, 1))
	b.halt()
	b.code.Ops[jz].Target = int32(len(b.code.Ops))
	b.constant(d, bits.FromUint64(8, 2))
	b.halt()
	b.watch = []int32{d}
}

// link lays out the program the builder's unit is the one combinational
// span of: each variable's slot or memory in list order, then the
// temporaries. A variable of the Flat outside the span's list names each
// temporary's slot, so that a state image holds every slot: the reset
// image seeds the operands and fills every memory with a word-dependent
// pattern, and observe reads the machine's image.
func (b *opProg) link() *netlist.Program {
	p := &b.p
	p.Flat, p.Vars, p.Comb = &b.flat, b.vars, 1
	b.nvars = len(b.flat.Vars)
	for i, w := range b.code.TempWidths {
		b.flat.Vars = append(b.flat.Vars, &elab.Var{Name: fmt.Sprintf("t%d", i), Index: b.nvars + i, Width: int(w)})
	}
	p.VarSlot, p.MemOf = make([]int, len(b.flat.Vars)), make([]int, len(b.flat.Vars))
	for i, v := range b.flat.Vars {
		p.VarSlot[i], p.MemOf[i] = -1, -1
		if v.IsArray() {
			p.MemOf[i] = len(p.Mems)
			p.Mems = append(p.Mems, netlist.MemInfo{Var: v, Words: v.ArrayLen, Width: v.Width, Wide: v.Width > 64})
			continue
		}
		slot := netlist.SlotInfo{Width: v.Width, Wide: v.Width > 64}
		if i < b.nvars {
			slot.Var = v
		}
		p.VarSlot[i] = len(p.Slots)
		p.Slots = append(p.Slots, slot)
	}
	p.Spans = []netlist.Span{{Temps: int32(len(p.Slots) - len(b.code.TempWidths)), UnitCode: &b.code}}
	l := b.flat.Layout()
	p.Reset = make([]uint64, l.Len())
	for ref, v := range b.fill {
		copy(l.Of(p.Reset, b.varOf(ref)), v.Words())
	}
	for _, info := range p.Mems {
		words, n := l.Of(p.Reset, info.Var.Index), bits.WordsFor(info.Width)
		for j := 0; j < info.Words; j++ {
			pat := bits.New(info.Width)
			pat.SetShr(ones(info.Width), j)
			copy(words[j*n:], pat.Words())
		}
	}
	return p
}

// varOf returns the Flat variable that names reference s's slot.
func (b *opProg) varOf(s int32) int {
	if s < 0 {
		return int(b.vars[-1-s] >> 1)
	}
	return b.nvars + int(s)
}

// opGen draws operands.
type opGen struct{ r *rand.Rand }

func (g opGen) width() int { return opWidths[g.r.Intn(len(opWidths))] }

// widthUpTo draws an operand width no wider than w (the context width
// the synthesizer extends operands to).
func (g opGen) widthUpTo(w int) int {
	for {
		if x := g.width(); x <= w {
			return x
		}
	}
}

func ones(w int) *bits.Vector { return bits.New(w).SetNot(bits.New(1)) }

// val draws a value of width w: zero, one, all ones, the top bit alone,
// or random bits.
func (g opGen) val(w int) *bits.Vector {
	switch g.r.Intn(6) {
	case 0:
		return bits.New(w)
	case 1:
		return bits.FromUint64(w, 1)
	case 2:
		return ones(w)
	case 3:
		v := bits.New(w)
		v.SetBit(w-1, 1)
		return v
	}
	v := bits.New(w)
	for i := 0; i < w; i++ {
		v.SetBit(i, uint(g.r.Intn(2)))
	}
	return v
}

// index draws a value of width w to be used as a position against
// limit (a shift amount, a bit or word index): around the limit, around
// the 64-bit lane edge, and the extremes of the width.
func (g opGen) index(w, limit int) *bits.Vector {
	picks := []uint64{0, 1, uint64(limit) - 1, uint64(limit), uint64(limit) + 1, 63, 64, 65}
	if n := g.r.Intn(len(picks) + 3); n < len(picks) {
		return bits.FromUint64(w, picks[n])
	}
	return g.val(w)
}

var opNow = func() uint64 { return 0xfeed_0000_0000_0042 }

// opForms maps every op kind to the generator of its well-formed
// instances. A kind without an entry fails the test.
var opForms = map[netlist.OpKind]func(g opGen, k netlist.OpKind) *opProg{
	netlist.OpConst: func(g opGen, k netlist.OpKind) *opProg {
		b := newOpProg()
		w := g.width()
		b.constant(b.temp(w), g.val(w))
		b.halt()
		return b
	},
	netlist.OpMove: unaryForm, netlist.OpNot: unaryForm, netlist.OpNeg: unaryForm,

	netlist.OpAdd: binaryForm, netlist.OpSub: binaryForm, netlist.OpMul: binaryForm,
	netlist.OpDiv: binaryForm, netlist.OpMod: binaryForm, netlist.OpAnd: binaryForm,
	netlist.OpOr: binaryForm, netlist.OpXor: binaryForm, netlist.OpXnor: binaryForm,

	netlist.OpPow: shiftForm, netlist.OpShl: shiftForm, netlist.OpShr: shiftForm,

	netlist.OpLogNot: testForm, netlist.OpRedAnd: testForm, netlist.OpRedOr: testForm,
	netlist.OpRedXor: testForm, netlist.OpRedNand: testForm, netlist.OpRedNor: testForm,
	netlist.OpRedXnor: testForm,
	netlist.OpEq:      testForm, netlist.OpNe: testForm, netlist.OpLt: testForm,
	netlist.OpLe: testForm, netlist.OpGt: testForm, netlist.OpGe: testForm,
	netlist.OpLogAnd: testForm, netlist.OpLogOr: testForm,

	netlist.OpSlice: func(g opGen, k netlist.OpKind) *opProg {
		b := newOpProg()
		v := g.val(g.width())
		slice := func() int32 {
			lo := g.r.Intn(v.Width() + 2) // at and past the top bit: reads zeros
			w := 1 + g.r.Intn(v.Width())
			d := b.temp(w)
			b.emit(netlist.Op{Kind: k, Dst: d, Width: int32(w), Hi: int32(lo + w - 1), Lo: int32(lo)}, b.src(v))
			return d
		}
		hi := slice()
		if g.r.Intn(3) == 0 {
			// Two slices into temporaries the concat reading them is the
			// one reader of: the rotate the compiler fuses into one step,
			// leaving the temporaries unwritten, so it watches the result.
			b.note = "into a concat"
			lo := slice()
			w := b.width(hi) + b.width(lo)
			d := b.temp(w)
			b.emit(netlist.Op{Kind: netlist.OpConcat, Dst: d, Width: int32(w)}, hi, lo)
			b.watch = []int32{d}
		}
		b.halt()
		return b
	},
	netlist.OpBitSel: func(g opGen, k netlist.OpKind) *opProg {
		b := newOpProg()
		v := g.val(g.width())
		idx := g.index(g.width(), v.Width())
		b.emit(netlist.Op{Kind: k, Dst: b.temp(1), Width: 1}, b.src(v), b.src(idx))
		b.halt()
		return b
	},
	netlist.OpConcat: func(g opGen, k netlist.OpKind) *opProg {
		b := newOpProg()
		var srcs []int32
		total := 0
		for i, n := 0, 1+g.r.Intn(4); i < n; i++ {
			v := g.val(g.width())
			srcs = append(srcs, b.src(v))
			total += v.Width()
		}
		b.emit(netlist.Op{Kind: k, Dst: b.temp(total), Width: int32(total)}, srcs...)
		b.halt()
		return b
	},
	netlist.OpRepl: func(g opGen, k netlist.OpKind) *opProg {
		b := newOpProg()
		v := g.val(g.width())
		n := 1 + g.r.Intn(4)
		b.emit(netlist.Op{Kind: k, Dst: b.temp(v.Width() * n), Width: int32(v.Width() * n), N: int32(n)}, b.src(v))
		b.halt()
		return b
	},
	netlist.OpMux: func(g opGen, k netlist.OpKind) *opProg {
		b := newOpProg()
		w := g.width()
		srcs := []int32{b.src(g.val(g.width())), b.src(g.val(g.widthUpTo(w))), b.src(g.val(g.widthUpTo(w)))}
		b.emit(netlist.Op{Kind: k, Dst: b.temp(w), Width: int32(w)}, srcs...)
		b.halt()
		return b
	},
	netlist.OpTime: func(g opGen, k netlist.OpKind) *opProg {
		b := newOpProg()
		b.emit(netlist.Op{Kind: k, Dst: b.temp(64), Width: 64})
		b.halt()
		return b
	},
	netlist.OpMemRead: func(g opGen, k netlist.OpKind) *opProg {
		b := newOpProg()
		w, words := g.width(), 1+g.r.Intn(5)
		addr := g.index(g.width(), words)
		b.emit(netlist.Op{Kind: k, Dst: b.temp(w), Aux: b.mem(words, w), Width: int32(w)}, b.src(addr))
		b.halt()
		return b
	},
	netlist.OpJump: func(g opGen, k netlist.OpKind) *opProg {
		b := newOpProg()
		b.branch(b.src(g.val(g.width())))
		b.code.Ops[0].Kind = k // the Jz becomes unconditional
		b.code.Ops[0].NSrcs = 0
		return b
	},
	netlist.OpJz: func(g opGen, k netlist.OpKind) *opProg {
		b := newOpProg()
		b.branch(b.src(g.val(g.width())))
		return b
	},

	netlist.OpWrite: writeForm, netlist.OpWriteNB: writeForm,
	netlist.OpWriteRng: writeForm, netlist.OpWriteRngNB: writeForm,
	netlist.OpWriteBit: writeForm, netlist.OpWriteBitNB: writeForm,

	netlist.OpMemWrite: memWriteForm, netlist.OpMemWriteNB: memWriteForm,

	netlist.OpDisplay: func(g opGen, k netlist.OpKind) *opProg {
		b := newOpProg()
		task := &elab.SysTask{Kind: elab.TaskDisplay}
		srcs := []int32{b.src(g.val(g.width())), b.src(g.val(g.width()))}
		if g.r.Intn(2) == 0 {
			task.Format = "a=%d b=%h"
		}
		b.p.Tasks = []netlist.Task{{Src: task}}
		b.emit(netlist.Op{Kind: k}, srcs...)
		b.halt()
		return b
	},
	netlist.OpFinish: func(g opGen, k netlist.OpKind) *opProg {
		b := newOpProg()
		b.emit(netlist.Op{Kind: k})
		b.halt()
		return b
	},
	netlist.OpHalt: func(g opGen, k netlist.OpKind) *opProg {
		b := newOpProg()
		b.halt()
		return b
	},
}

// unaryForm: dst = f(a) at the context width; the operand may be
// narrower (zero-extended) or, for a move, wider (truncated).
func unaryForm(g opGen, k netlist.OpKind) *opProg {
	b := newOpProg()
	w := g.width()
	a := g.val(g.width())
	b.emit(netlist.Op{Kind: k, Dst: b.temp(w), Width: int32(w)}, b.src(a))
	b.halt()
	return b
}

// binaryForm: dst = a op b, both operands extended to the context width;
// narrow and wide operands mix whenever the context is wide.
func binaryForm(g opGen, k netlist.OpKind) *opProg {
	b := newOpProg()
	w := g.width()
	x, y := g.val(g.widthUpTo(w)), g.val(g.widthUpTo(w))
	b.emit(netlist.Op{Kind: k, Dst: b.temp(w), Width: int32(w)}, b.src(x), b.src(y))
	b.halt()
	return b
}

// shiftForm: the right operand (shift amount, exponent) is
// self-determined: any width, values at and past the 64-bit lane.
func shiftForm(g opGen, k netlist.OpKind) *opProg {
	b := newOpProg()
	w := g.width()
	x, y := g.val(g.widthUpTo(w)), g.index(g.width(), w)
	b.emit(netlist.Op{Kind: k, Dst: b.temp(w), Width: int32(w)}, b.src(x), b.src(y))
	b.halt()
	return b
}

// testForm covers the one-bit results (comparisons, logical operators,
// reductions) over operands of any two widths, in four shapes: the value
// alone, the value feeding the branch that follows it, the value
// inverted into that branch — the shapes the compiler fuses — and the
// value reduced into that branch, which no fusion takes: its block runs
// both instructions' closures before the branch.
func testForm(g opGen, k netlist.OpKind) *opProg {
	b := newOpProg()
	x := g.val(g.width())
	srcs := []int32{b.src(x)}
	if k >= netlist.OpEq && k <= netlist.OpLogOr {
		y := g.val(g.width())
		if g.r.Intn(3) == 0 {
			y = x.Clone() // equality needs help to ever hold at width 64
		}
		srcs = append(srcs, b.src(y))
	}
	t := b.temp(1)
	b.emit(netlist.Op{Kind: k, Dst: t, Width: 1}, srcs...)
	switch g.r.Intn(4) {
	case 0:
		b.halt()
	case 1:
		b.note = "into a branch"
		b.branch(t)
	case 2:
		b.note = "inverted into a branch"
		inv := b.temp(1)
		b.emit(netlist.Op{Kind: netlist.OpLogNot, Dst: inv, Width: 1}, t)
		b.branch(inv)
	case 3:
		b.note = "reduced into a branch"
		red := b.temp(1)
		b.emit(netlist.Op{Kind: netlist.OpRedXor, Dst: red, Width: 1}, t)
		b.branch(red)
	}
	return b
}

// writeForm covers the blocking and non-blocking variable writes: full
// slot, constant range (reaching past the slot's top bit) and dynamic
// bit (index out of range at any width).
func writeForm(g opGen, k netlist.OpKind) *opProg {
	b := newOpProg()
	wd := g.width()
	d := b.vslot(wd)
	b.fill[d] = g.val(wd)
	v := g.val(g.width())
	op := netlist.Op{Kind: k, Dst: d, Width: int32(wd)}
	srcs := []int32{b.src(v)}
	switch k {
	case netlist.OpWriteRng, netlist.OpWriteRngNB:
		lo := g.r.Intn(wd)
		hi := lo + g.r.Intn(wd-lo+1)
		op.Hi, op.Lo, op.Width = int32(hi), int32(lo), int32(hi-lo+1)
	case netlist.OpWriteBit, netlist.OpWriteBitNB:
		srcs = append(srcs, b.src(g.index(g.width(), wd)))
		op.Width = 1
	}
	b.emit(op, srcs...)
	b.halt()
	return b
}

func memWriteForm(g opGen, k netlist.OpKind) *opProg {
	b := newOpProg()
	w, words := g.width(), 1+g.r.Intn(5)
	addr := g.index(g.width(), words)
	b.emit(netlist.Op{Kind: k, Aux: b.mem(words, w), Width: int32(w)}, b.src(g.val(w)), b.src(addr))
	b.halt()
	return b
}

// opSide is one implementation's run of an opProg.
type opSide struct {
	m      *netlist.Machine
	active func() bool
	eval   func()
	pend   func() bool
	update func()
}

// step runs one evaluation batch, commits what it queued and evaluates
// again. Not a fixpoint: the unit is combinational, and the reference
// re-runs it (and re-queues its non-blocking write) after every commit
// to a memory.
func (s opSide) step() {
	s.eval()
	if s.pend() {
		s.update()
	}
	if s.active() {
		s.eval()
	}
}

// observe renders everything the instruction could have touched, from
// the machine's state image: the watched slots, or every slot and memory.
func (s opSide) observe(b *opProg) string {
	var sb strings.Builder
	l, img := b.flat.Layout(), s.m.GetState()
	show := func(i int) { fmt.Fprintf(&sb, "%s=%x ", l.Vars[i].Name, l.Of(img, i)) }
	if b.watch == nil {
		for i := range l.Vars {
			show(i)
		}
	}
	for _, ref := range b.watch {
		show(b.varOf(ref))
	}
	for _, ev := range s.m.DrainEvents() {
		fmt.Fprintf(&sb, "event{%q nl=%v finish=%v} ", ev.Text, ev.Newline, ev.Finish)
	}
	fmt.Fprintf(&sb, "finished=%v", s.m.Finished())
	return sb.String()
}

func TestOpSemanticsAgree(t *testing.T) {
	for k := netlist.OpKind(0); k <= netlist.OpHalt; k++ {
		form := opForms[k]
		if form == nil {
			t.Errorf("op kind %d has no entry in opForms: add its form here, its meaning to netlist.Machine.ExecOp and, if it is worth fusing, its closure to compileOp", k)
			continue
		}
		g := opGen{rand.New(rand.NewSource(int64(k) + 1))}
		for trial := 0; trial < 400; trial++ {
			b := form(g, k)
			p := b.link()
			rm := netlist.NewMachine(p)
			rm.NowFn = opNow
			ref := opSide{rm, rm.HasActive, rm.Evaluate, rm.HasUpdates, rm.Update}
			cm := netlist.NewMachine(p)
			cm.NowFn = opNow
			ev := Compile(cm)
			comp := opSide{cm, ev.HasActive, ev.Evaluate, ev.HasUpdates, ev.Update}
			ref.step()
			comp.step()
			if want, got := ref.observe(b), comp.observe(b); want != got {
				t.Errorf("op kind %d %s trial %d: %s\nprogram:   %+v\noperands:  %v\nreference: %s\ncompiled:  %s",
					k, b.note, trial, describeSlots(b), b.code.Ops, b.fill, want, got)
				break
			}
		}
	}
}

func describeSlots(b *opProg) string {
	var sb strings.Builder
	for i, s := range b.p.Slots {
		fmt.Fprintf(&sb, "s%d:%d ", i, s.Width)
	}
	return sb.String()
}

// A non-blocking write to a memory of 64 bits or less through an address
// wider than 64 bits: the wide address flags the instruction Wide, so
// the reference path queues the value as a vector, and the commit used
// to store the (unset) word form of it — 0 — into the narrow memory, on
// the native tier and the fabric model alike.
func TestWideAddressNarrowMemoryNB(t *testing.T) {
	const src = `
module M(input wire clk, output reg [7:0] out);
  reg [7:0] mem [0:3];
  reg [79:0] big = 2;
  always @(posedge clk) begin
    mem[big] <= 8'hAB;
    out <= mem[2];
  end
endmodule`
	d := newDualNative(t, src)
	s := sim.New(d.f, sim.Options{})
	settle := func() {
		for s.HasActive() || s.HasUpdates() {
			s.Evaluate()
			if s.HasUpdates() {
				s.Update()
			}
		}
		s.EndStep()
	}
	settle()
	for i := 0; i < 3; i++ {
		for _, level := range []uint64{1, 0} {
			s.SetInput(d.f.VarNamed("clk"), bits.FromUint64(1, level))
			settle()
		}
		d.tick()
		d.check(t, fmt.Sprintf("tick %d: reference vs compiled", i))
		if ss, ms := fmt.Sprint(s.GetState()), fmt.Sprint(d.m.GetState()); ss != ms {
			t.Fatalf("tick %d: sim vs reference\nsim:       %s\nreference: %s", i, ss, ms)
		}
	}
	st := imagetest.Of(d.e.Flat().Layout(), d.e.GetState())
	if got := st.Array("mem")[2].Uint64(); got != 0xAB {
		t.Fatalf("mem[2] = %#x, want 0xab", got)
	}
	if got := st.Scalar("out").Uint64(); got != 0xAB {
		t.Fatalf("out = %#x, want 0xab", got)
	}
}
