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
// hand-built single-instruction programs shaped the way netlist.Compile
// emits them, over random and boundary operands.

// opWidths are the slot widths operands are drawn from: the lane
// boundaries (1, 63, 64), the first wide width, and a wide width that
// spans two words with a partial top word.
var opWidths = []int{1, 2, 8, 63, 64, 65, 100}

// opProg builds a one-unit program around the instruction under test.
type opProg struct {
	p    netlist.Program
	fill map[int]*bits.Vector // slot -> value loaded before evaluation
	// watch lists the slots compared afterwards; nil compares all. A
	// comparison the compiler fuses into its branch leaves the temporary
	// unwritten, so branch forms watch only the result.
	watch []int
	note  string
}

func newOpProg() *opProg {
	return &opProg{
		p:    netlist.Program{Flat: &elab.Flat{Name: "dut"}, Comb: []netlist.CombUnit{{Entry: 0}}},
		fill: map[int]*bits.Vector{},
	}
}

// temp adds a temporary slot, vslot a variable-backed one.
func (b *opProg) temp(w int) int {
	b.p.Slots = append(b.p.Slots, netlist.SlotInfo{Width: w, Wide: w > 64})
	return len(b.p.Slots) - 1
}

func (b *opProg) vslot(w int) int {
	i := b.temp(w)
	b.p.Slots[i].Var = &elab.Var{Name: fmt.Sprintf("v%d", i), Width: w}
	return i
}

// src adds a temporary holding v.
func (b *opProg) src(v *bits.Vector) int {
	i := b.temp(v.Width())
	b.fill[i] = v
	return i
}

func (b *opProg) mem(words, w int) int {
	b.p.Mems = append(b.p.Mems, netlist.MemInfo{Words: words, Width: w, Wide: w > 64})
	return len(b.p.Mems) - 1
}

// emit appends op reading srcs, flagged Wide by the synthesizer's rule:
// its result or any operand is wider than 64 bits.
func (b *opProg) emit(op netlist.Op, srcs ...int) int {
	wide := func(s int) bool { return s >= 0 && s < len(b.p.Slots) && b.p.Slots[s].Wide }
	op.Wide = op.Width > 64 || wide(int(op.Dst))
	op.Src, op.NSrcs, op.Const = int32(len(b.p.Operands)), int32(len(srcs)), -1
	for _, s := range srcs {
		op.Wide = op.Wide || wide(s)
		b.p.Operands = append(b.p.Operands, int32(s))
	}
	b.p.Code = append(b.p.Code, op)
	return len(b.p.Code) - 1
}

// constant appends d = v.
func (b *opProg) constant(d int, v *bits.Vector) {
	pc := b.emit(netlist.Op{Kind: netlist.OpConst, Dst: int32(d), Width: int32(v.Width())})
	b.p.Code[pc].Const = int32(len(b.p.Consts))
	b.p.Consts = append(b.p.Consts, v)
}

func (b *opProg) halt() { b.emit(netlist.Op{Kind: netlist.OpHalt}) }

// branch appends "if cond is zero the result is 2, else 1" and watches
// only the result.
func (b *opProg) branch(cond int) {
	d := b.temp(8)
	jz := b.emit(netlist.Op{Kind: netlist.OpJz}, cond)
	b.constant(d, bits.FromUint64(8, 1))
	b.halt()
	b.p.Code[jz].Target = int32(len(b.p.Code))
	b.constant(d, bits.FromUint64(8, 2))
	b.halt()
	b.watch = []int{d}
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

func ones(w int) *bits.Vector { return bits.New(w).Not() }

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
		return bits.FromUint64(w, 1).ShlUint(w - 1)
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
		lo := g.r.Intn(v.Width() + 2) // at and past the top bit: reads zeros
		w := 1 + g.r.Intn(v.Width())
		b.emit(netlist.Op{Kind: k, Dst: int32(b.temp(w)), Width: int32(w), Hi: int32(lo + w - 1), Lo: int32(lo)}, b.src(v))
		b.halt()
		return b
	},
	netlist.OpBitSel: func(g opGen, k netlist.OpKind) *opProg {
		b := newOpProg()
		v := g.val(g.width())
		idx := g.index(g.width(), v.Width())
		b.emit(netlist.Op{Kind: k, Dst: int32(b.temp(1)), Width: 1}, b.src(v), b.src(idx))
		b.halt()
		return b
	},
	netlist.OpConcat: func(g opGen, k netlist.OpKind) *opProg {
		b := newOpProg()
		var srcs []int
		total := 0
		for i, n := 0, 1+g.r.Intn(4); i < n; i++ {
			v := g.val(g.width())
			srcs = append(srcs, b.src(v))
			total += v.Width()
		}
		b.emit(netlist.Op{Kind: k, Dst: int32(b.temp(total)), Width: int32(total)}, srcs...)
		b.halt()
		return b
	},
	netlist.OpRepl: func(g opGen, k netlist.OpKind) *opProg {
		b := newOpProg()
		v := g.val(g.width())
		n := 1 + g.r.Intn(4)
		b.emit(netlist.Op{Kind: k, Dst: int32(b.temp(v.Width() * n)), Width: int32(v.Width() * n), N: int32(n)}, b.src(v))
		b.halt()
		return b
	},
	netlist.OpMux: func(g opGen, k netlist.OpKind) *opProg {
		b := newOpProg()
		w := g.width()
		srcs := []int{b.src(g.val(g.width())), b.src(g.val(g.widthUpTo(w))), b.src(g.val(g.widthUpTo(w)))}
		b.emit(netlist.Op{Kind: k, Dst: int32(b.temp(w)), Width: int32(w)}, srcs...)
		b.halt()
		return b
	},
	netlist.OpTime: func(g opGen, k netlist.OpKind) *opProg {
		b := newOpProg()
		b.emit(netlist.Op{Kind: k, Dst: int32(b.temp(64)), Width: 64})
		b.halt()
		return b
	},
	netlist.OpMemRead: func(g opGen, k netlist.OpKind) *opProg {
		b := newOpProg()
		w, words := g.width(), 1+g.r.Intn(5)
		addr := g.index(g.width(), words)
		b.emit(netlist.Op{Kind: k, Dst: int32(b.temp(w)), Aux: int32(b.mem(words, w)), Width: int32(w)}, b.src(addr))
		b.halt()
		return b
	},
	netlist.OpJump: func(g opGen, k netlist.OpKind) *opProg {
		b := newOpProg()
		b.branch(b.src(g.val(g.width())))
		b.p.Code[0].Kind = k // the Jz becomes unconditional
		b.p.Code[0].NSrcs = 0
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
		srcs := []int{b.src(g.val(g.width())), b.src(g.val(g.width()))}
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
	b.emit(netlist.Op{Kind: k, Dst: int32(b.temp(w)), Width: int32(w)}, b.src(a))
	b.halt()
	return b
}

// binaryForm: dst = a op b, both operands extended to the context width;
// narrow and wide operands mix whenever the context is wide.
func binaryForm(g opGen, k netlist.OpKind) *opProg {
	b := newOpProg()
	w := g.width()
	x, y := g.val(g.widthUpTo(w)), g.val(g.widthUpTo(w))
	b.emit(netlist.Op{Kind: k, Dst: int32(b.temp(w)), Width: int32(w)}, b.src(x), b.src(y))
	b.halt()
	return b
}

// shiftForm: the right operand (shift amount, exponent) is
// self-determined: any width, values at and past the 64-bit lane.
func shiftForm(g opGen, k netlist.OpKind) *opProg {
	b := newOpProg()
	w := g.width()
	x, y := g.val(g.widthUpTo(w)), g.index(g.width(), w)
	b.emit(netlist.Op{Kind: k, Dst: int32(b.temp(w)), Width: int32(w)}, b.src(x), b.src(y))
	b.halt()
	return b
}

// testForm covers the one-bit results (comparisons, logical operators,
// reductions) over operands of any two widths, in three shapes: the
// value alone, the value feeding the branch that follows it, and the
// value inverted into that branch — the shapes the compiler fuses.
func testForm(g opGen, k netlist.OpKind) *opProg {
	b := newOpProg()
	x := g.val(g.width())
	srcs := []int{b.src(x)}
	if k >= netlist.OpEq && k <= netlist.OpLogOr {
		y := g.val(g.width())
		if g.r.Intn(3) == 0 {
			y = x.Clone() // equality needs help to ever hold at width 64
		}
		srcs = append(srcs, b.src(y))
	}
	t := b.temp(1)
	b.emit(netlist.Op{Kind: k, Dst: int32(t), Width: 1}, srcs...)
	switch g.r.Intn(3) {
	case 0:
		b.halt()
	case 1:
		b.note = "into a branch"
		b.branch(t)
	case 2:
		b.note = "inverted into a branch"
		inv := b.temp(1)
		b.emit(netlist.Op{Kind: netlist.OpLogNot, Dst: int32(inv), Width: 1}, t)
		b.branch(inv)
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
	op := netlist.Op{Kind: k, Dst: int32(d), Width: int32(wd)}
	srcs := []int{b.src(v)}
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
	b.emit(netlist.Op{Kind: k, Aux: int32(b.mem(words, w)), Width: int32(w)}, b.src(g.val(w)), b.src(addr))
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

// load installs the program's operand values and fills every memory with
// a word-dependent pattern.
func (s opSide) load(b *opProg) {
	h := s.m.Hooks()
	for slot, v := range b.fill {
		if h.Wide[slot] != nil {
			h.Wide[slot].CopyFrom(v)
		} else {
			h.U64[slot] = v.Uint64()
		}
	}
	for mi, info := range b.p.Mems {
		for j := 0; j < info.Words; j++ {
			pat := ones(info.Width).ShrUint(j)
			if info.Wide {
				h.MemW[mi][j].CopyFrom(pat)
			} else {
				h.Mem64[mi][j] = pat.Uint64()
			}
		}
	}
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

// observe renders everything the instruction could have touched.
func (s opSide) observe(b *opProg) string {
	var sb strings.Builder
	h := s.m.Hooks()
	slots := b.watch
	if slots == nil {
		for i := range b.p.Slots {
			slots = append(slots, i)
		}
	}
	for _, i := range slots {
		if h.Wide[i] != nil {
			fmt.Fprintf(&sb, "s%d=%s ", i, h.Wide[i])
		} else {
			fmt.Fprintf(&sb, "s%d=%d'h%x ", i, b.p.Slots[i].Width, h.U64[i])
		}
	}
	for mi, info := range b.p.Mems {
		for j := 0; j < info.Words; j++ {
			if info.Wide {
				fmt.Fprintf(&sb, "m%d[%d]=%s ", mi, j, h.MemW[mi][j])
			} else {
				fmt.Fprintf(&sb, "m%d[%d]=%x ", mi, j, h.Mem64[mi][j])
			}
		}
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
			rm := netlist.NewMachine(&b.p)
			rm.NowFn = opNow
			ref := opSide{rm, rm.HasActive, rm.Evaluate, rm.HasUpdates, rm.Update}
			cm := netlist.NewMachine(&b.p)
			cm.NowFn = opNow
			ev := Compile(cm)
			comp := opSide{cm, ev.HasActive, ev.Evaluate, ev.HasUpdates, ev.Update}
			ref.load(b)
			comp.load(b)
			ref.step()
			comp.step()
			if want, got := ref.observe(b), comp.observe(b); want != got {
				t.Errorf("op kind %d %s trial %d: %s\nprogram:   %+v\noperands:  %v\nreference: %s\ncompiled:  %s",
					k, b.note, trial, describeSlots(b), b.p.Code, b.fill, want, got)
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
