package vgen

import (
	"fmt"
	"strings"

	"cascade/internal/fault"
)

// sig is a readable name and its width (0: set by a parameter, so the
// generator takes no selects of it).
type sig struct {
	name string
	w    int
}

type gen struct{ r fault.SplitMix }

func (g *gen) n(k int) int            { return int(g.r.Next() % uint64(k)) }
func (g *gen) one(in int) bool        { return g.n(in) == 0 }
func (g *gen) pick(s []sig) sig       { return s[g.n(len(s))] }
func (g *gen) str(s ...string) string { return s[g.n(len(s))] }

// signal picks a name of known width — not a parameter — when s has one.
func (g *gen) signal(s []sig) sig {
	var known []sig
	for _, x := range s {
		if x.w > 0 {
			known = append(known, x)
		}
	}
	if len(known) == 0 {
		return g.pick(s)
	}
	return g.pick(known)
}

// widths are the register widths: the word boundary from both sides
// (TestOpSemanticsAgree's table), the narrow cases the compiled tiers fuse,
// and the wide ones they fall back on.
var widths = []int{1, 4, 8, 13, 16, 32, 63, 64, 65, 80}

// lit is a sized literal; wide ones set bits above the first word.
func (g *gen) lit() *Expr {
	w := 1 + g.n(14)
	if g.one(5) {
		w = widths[4+g.n(6)]
	}
	v := g.r.Next()
	if w < 64 {
		v &= 1<<w - 1
	}
	if w > 64 {
		return leaf("%d'h%x%016x", w, g.r.Next()&(1<<(w-64)-1), v)
	}
	return leaf("%d'h%x", w, v)
}

// ref reads s, whole or — where its width is known — through a constant
// bit- or part-select.
func (g *gen) ref(s sig) *Expr {
	if s.w < 2 || !g.one(4) {
		return leaf(s.name)
	}
	lo := g.n(s.w)
	hi := lo + g.n(s.w-lo)
	if hi == lo {
		return leaf("%s[%d]", s.name, lo)
	}
	return leaf("%s[%d:%d]", s.name, hi, lo)
}

// expr is a random expression over reads; mems are the memories in scope.
func (g *gen) expr(depth int, reads, mems []sig) *Expr {
	if depth <= 0 || g.one(4) {
		if g.one(3) {
			return g.lit()
		}
		return g.ref(g.pick(reads))
	}
	sub := func() *Expr { return g.expr(depth-1, reads, mems) }
	switch g.n(22) {
	case 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10:
		return op("(%s "+g.str("+", "+", "-", "*", "&", "|", "^", "~^", "<", "<=", "==", "!=", "&&", "||", "%%", "/")+" %s)", sub(), sub())
	case 11, 12:
		return op(fmt.Sprintf("(%%s %s %d)", g.str(">>", "<<"), g.n(70)), sub())
	case 13:
		return op("(%s << %s)", sub(), g.ref(g.pick(reads)))
	case 14:
		return op("(%s ? %s : %s)", sub(), sub(), sub())
	case 15:
		return op("{%s, %s}", sub(), sub())
	case 16:
		return op(fmt.Sprintf("{%d{%%s}}", 1+g.n(3)), sub())
	case 17, 18:
		return op("("+g.str("~", "-", "!", "&", "|", "^", "~^")+"%s)", sub())
	case 19:
		s := g.pick(reads)
		if s.w == 0 || strings.Contains(s.name, ".") {
			return leaf(s.name)
		}
		// A data-dependent bit-select; a constant index out of range is an
		// elaboration error, so a signal is added in.
		return op(s.name+"[(%s + %s)]", g.ref(g.signal(reads)), sub())
	default:
		if len(mems) == 0 {
			return g.ref(g.pick(reads))
		}
		return op(g.pick(mems).name+"[%s]", sub()) // data-dependent, any width: ≥ 2⁶³ reads 0
	}
}

// konst is a constant expression of exactly w self-determined bits, built
// from what parameter values are built from: concatenation, replication,
// xnor, reductions, ternaries.
func (g *gen) konst(w, depth int) *Expr {
	num := func(w int) *Expr { return leaf("%d'd%d", w, g.r.Next()&(1<<w-1)) }
	if depth <= 0 || w < 2 {
		return num(w)
	}
	sub := func(w int) *Expr { return g.konst(w, depth-1) }
	switch g.n(6) {
	case 0:
		hi := 1 + g.n(w-1)
		return op("{%s, %s}", sub(hi), sub(w-hi))
	case 1:
		if w%2 == 0 {
			return op("{2{%s}}", sub(w/2))
		}
		return op("{%s, "+g.str("&", "|", "^")+"%s}", sub(w-1), sub(3))
	case 2:
		return op("(%s ~^ %s)", sub(w), sub(w))
	case 3:
		return op("((%s > %s) ? %s : %s)", num(3), num(3), sub(w), sub(w))
	case 4:
		return op("(%s "+g.str("+", "^", "|")+" %s)", sub(w), sub(w))
	}
	return num(w)
}

// regWidth is a parameter value usable as a register width: 4 to 7.
func (g *gen) regWidth() *Expr { return op("{1'b1, %s}", g.konst(2, 2)) }

// rng is a declaration's packed range.
func rng(w int) string {
	if w == 1 {
		return ""
	}
	return fmt.Sprintf("[%d:0] ", w-1)
}

// body appends registers, a memory, wires, a combinational block and
// edge-triggered blocks on clock to items, every block reading, writing and
// printing as the package comment promises. ins are the names the scope
// reads but does not write (ports, instance outputs, parameters; width 0
// keeps selects off them); tag prefixes what the blocks print and sfx ends
// every name declared, so the root items of different fragments do not
// collide. Register 1 is paramW bits wide when that is given. It returns
// the items, the last block and the registers declared.
func (g *gen) body(items []*Node, tag, sfx, clock string, ins []sig, paramW string) ([]*Node, *Node, []sig) {
	var regs, mems []sig
	nregs := 2 + g.n(4)
	for i := 0; i < nregs; i++ {
		r := sig{fmt.Sprintf("r%d%s", i, sfx), widths[g.n(len(widths))]}
		decl := rng(r.w)
		if i == 1 && paramW != "" {
			decl, r.w = "["+paramW+"-1:0] ", 0
		}
		items = append(items, line("reg "+decl+r.name+" = %s;", g.lit()))
		regs = append(regs, r)
	}
	if g.one(2) {
		m := sig{"m" + sfx, widths[1+g.n(len(widths)-1)]}
		items = append(items, line(fmt.Sprintf("reg %s%s [0:%d];", rng(m.w), m.name, 2+g.n(6))))
		mems = append(mems, m)
	}
	reads := append(append([]sig{}, ins...), regs...)
	for i, n := 0, 1+g.n(3); i < n; i++ {
		w := sig{fmt.Sprintf("w%d%s", i, sfx), widths[g.n(len(widths))]}
		items = append(items, line("wire "+rng(w.w)+w.name+" = %s;", g.expr(3, reads, mems)))
		reads = append(reads, w)
	}
	if g.one(3) {
		k := sig{"k" + sfx, 12}
		items = append(items, line("reg [11:0] "+k.name+";"),
			&Node{Text: "always @(*) begin", Close: "end", Kids: []*Node{line(k.name+" = %s;", g.expr(2, reads, mems))}})
		reads = append(reads, k)
	}

	// Deal the registers out to the blocks; the memory belongs to the last.
	nblocks := 1 + g.n(min(3, nregs))
	owned := make([][]sig, nblocks)
	for i, r := range regs {
		owned[i%nblocks] = append(owned[i%nblocks], r)
	}
	var blk *Node
	for b, mine := range owned {
		// What another block (or, alone in its scope, another scope) writes.
		foreign := ins
		if nblocks > 1 {
			foreign = owned[(b+1+g.n(nblocks-1))%nblocks]
		}
		blk = &Node{Text: "always @(posedge " + clock + ") begin", Close: "end"}
		if g.one(5) {
			blk.Text = "always @(negedge " + clock + ") begin"
		}
		rhs := func() *Expr { return g.expr(3, reads, mems) }
		entangled := op("(%s "+g.str("+", "^", "-")+" %s)", g.ref(g.signal(foreign)), rhs())
		assign := func(lhs string, e *Expr) *Node { return line(lhs+" <= %s;", e) }
		arm := func(label string, kid *Node) *Node {
			return &Node{Text: label + " begin", Close: "end", Kids: []*Node{kid}}
		}
		temp := false
		for i := 0; i < len(mine); i++ {
			r, e := mine[i], rhs()
			if i == 0 {
				e = entangled
			}
			switch g.n(7) {
			case 0:
				blk.Kids = append(blk.Kids, &Node{Text: "if (%s) begin", Exprs: []*Expr{g.expr(2, reads, mems)}, Close: "end", Kids: []*Node{assign(r.name, e)}},
					arm("else", assign(r.name, rhs())))
			case 1:
				blk.Kids = append(blk.Kids, &Node{Text: "case (%s)", Exprs: []*Expr{op("(%s & 2'd3)", g.ref(g.pick(reads)))}, Close: "endcase", Kids: []*Node{
					arm("2'd0:", assign(r.name, e)), arm("2'd1, 2'd2:", assign(r.name, rhs())), arm("default:", assign(r.name, rhs()))}})
			case 2:
				if i+1 < len(mine) { // a concatenation as the target
					blk.Kids = append(blk.Kids, assign("{"+r.name+", "+mine[i+1].name+"}", e))
					i++
					continue
				}
				fallthrough
			case 3:
				if r.w > 4 { // a part-select and a data-dependent bit as targets
					blk.Kids = append(blk.Kids, assign(fmt.Sprintf("%s[%d:2]", r.name, r.w-1), e),
						line(r.name+"[%s] <= %s;", op("(%s & 1'd1)", g.ref(g.pick(reads))), rhs()))
					continue
				}
				fallthrough
			case 4: // through a blocking temporary only this block reads
				t := fmt.Sprintf("t%d%s", b, sfx)
				if !temp {
					items, temp = append(items, line("reg [15:0] "+t+" = 0;")), true
				}
				blk.Kids = append(blk.Kids, line(t+" = %s;", rhs()), assign(r.name, op("(%s ^ "+t+")", e)))
			default:
				blk.Kids = append(blk.Kids, assign(r.name, e))
			}
		}
		if b == nblocks-1 && len(mems) > 0 {
			blk.Kids = append(blk.Kids, line(mems[0].name+"[%s] <= %s;", g.expr(1, reads, nil), rhs()))
		}
		blk.Kids = append(blk.Kids, line(fmt.Sprintf(`$display("%s.%d %%%%h %%%%h %%%%h", %%s, %%s, %%s);`, tag, b),
			leaf(mine[0].name), g.ref(g.pick(foreign)), g.ref(g.pick(reads))))
		items = append(items, blk)
	}
	return items, blk, regs
}

// Module returns a self-contained synchronous module
//
//	module M(input wire clk, input wire [7:0] a, input wire [7:0] b);
//
// for the differentials that drive one engine by hand.
func Module(seed uint64) *Node {
	g := &gen{r: fault.SplitMix(seed)}
	m := &Node{Text: "module M(input wire clk, input wire [7:0] a, input wire [7:0] b);", Close: "endmodule", Kids: []*Node{
		line("localparam [7:0] K = %s;", g.konst(8, 3)), line("localparam W = %s;", g.regWidth())}}
	m.Kids, _, _ = g.body(m.Kids, "M", "", "clk", []sig{{"a", 8}, {"b", 8}, {"K", 0}}, "W")
	return m
}

// fold is what the LED shows of s: its low byte, xor its high byte.
func fold(s sig) *Expr {
	if s.w > 8 {
		return leaf("(%s[7:0] ^ %s[%d:%d])", s.name, s.name, s.w-1, s.w-8)
	}
	return leaf(s.name)
}

// Session returns a REPL session of two or three evals over two to five
// user modules: each fragment declares modules, instantiates them wired to
// the clock, the pad, root registers and the outputs of the instances
// before them (a later fragment's module reads state an earlier fragment
// left running), and adds root logic of its own that prints every new
// output; one of the fragments drives the LED from everything declared so
// far. Pads are pressed between runs. The first fragment's last block
// counts ticks and $finishes a few past the script's end, so a driver that
// cannot count ticks (one that loses clock edges to an outage) runs the
// session to its own end instead.
func Session(seed uint64) Script {
	g := &gen{r: fault.SplitMix(seed)}
	s := Script{Name: fmt.Sprintf("vgen%d", seed)}
	nfrags := 2 + g.n(2)
	ledAt := g.n(nfrags)
	var state []sig // instance outputs and root registers so far
	var counter *Node
	nmods := 0
	for f := 0; f < nfrags; f++ {
		var frag []*Node
		if f == 0 {
			frag = append(frag, line("localparam [7:0] RK = %s;", g.konst(8, 3)))
		}
		fresh := leaf("1'b0") // every new output, for the root to print
		for i, n := 0, 1+g.n(2-f/2); i < n && nmods < 5; i++ {
			nodes, outs := g.userModule(nmods, append([]sig{{"pad.val", 4}, {"RK", 0}}, state...))
			frag = append(frag, nodes...)
			state = append(state, outs...)
			for _, o := range outs {
				fresh = op("{%s, %s}", fresh, leaf(o.name))
			}
			nmods++
		}
		frag, last, regs := g.body(frag, fmt.Sprintf("root%d", f), fmt.Sprintf("_%d", f), "clk.val", append([]sig{{"pad.val", 4}, {"RK", 0}}, state...), "")
		last.Kids = append(last.Kids, line(fmt.Sprintf(`$display("root%d.x %%%%h", %%s);`, f), fresh))
		if f == 0 {
			frag, counter = append(frag, line("reg [15:0] age = 0;")), last
			last.Kids = append(last.Kids, line("age <= age + 1;"))
		}
		state = append(state, regs...)
		if f == ledAt {
			led := leaf("8'd0")
			for _, x := range state {
				if x.w > 0 {
					led = op("%s ^ %s", led, fold(x))
				}
			}
			frag = append(frag, line("assign led.val = %s;", led))
		}
		s.Steps = append(s.Steps, Step{Pad: -1, Frag: frag, Ticks: 10 + g.n(10)})
		if g.one(2) {
			s.Steps = append(s.Steps, Step{Pad: g.n(16), Ticks: 4 + g.n(6)})
		}
	}
	counter.Kids = append(counter.Kids, line(fmt.Sprintf("if (age == %d) $finish;", s.Ticks()+3)))
	return s
}

// userModule declares module M<i>, the root wire u<i>_o and instance u<i>:
// inputs a and b are driven from ins; outputs o (bound to the wire) and q
// and register r1 (both read hierarchically) are functions of the module's
// registers alone. It returns what the root reads of the instance.
func (g *gen) userModule(i int, ins []sig) ([]*Node, []sig) {
	wa, wb, wo := widths[g.n(len(widths))], widths[g.n(len(widths))], widths[1+g.n(len(widths)-1)]
	m := &Node{Close: "endmodule", Exprs: []*Expr{g.konst(8, 3), g.regWidth()},
		Text: fmt.Sprintf("module M%d #(parameter [7:0] K = %%s, parameter W = %%s)(input wire c, input wire %sa, input wire %sb, output wire %so, output wire [7:0] q);", i, rng(wa), rng(wb), rng(wo))}
	kids, _, regs := g.body(nil, fmt.Sprintf("M%d", i), "", "c", []sig{{"a", wa}, {"b", wb}, {"K", 0}}, "W")
	m.Kids = append(kids, line("assign o = %s;", g.expr(2, regs, nil)), line("assign q = %s;", g.expr(2, regs, nil)))
	u := fmt.Sprintf("u%d", i)
	inst := &Node{Inst: u, Exprs: []*Expr{g.expr(2, ins, nil), g.ref(g.pick(ins))}}
	params := ""
	switch g.n(3) {
	case 0:
		params, inst.Exprs = "#(.K(%s)) ", append([]*Expr{op("(%s ^ RK)", g.konst(8, 2))}, inst.Exprs...)
	case 1:
		params, inst.Exprs = "#(.W(%s), .K(%s)) ", append([]*Expr{g.regWidth(), g.konst(8, 2)}, inst.Exprs...)
	}
	inst.Text = fmt.Sprintf("M%d %s%s(.c(clk.val), .a(%%s), .b(%%s), .o(%s_o));", i, params, u, u)
	return []*Node{m, line("wire " + rng(wo) + u + "_o;"), inst}, []sig{{u + "_o", wo}, {u + ".q", 8}, {u + ".r1", 0}}
}
