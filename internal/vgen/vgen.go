// Package vgen is the tree's one seeded Verilog generator. Every
// differential test — interpreter ≡ netlist machine ≡ native code, ordered
// ≡ shuffled event queue, and the runtime's "X is invisible" table — draws
// its programs from here, so a construct the grammar gains is exercised by
// all of them at once.
//
// Programs stay inside the race-free synchronous subset the invariants
// are stated for: every register is written by exactly one always-block,
// with non-blocking assignments, on one clock edge; wires are assigned in
// declaration order from earlier names (acyclic); a blocking temporary is
// read only by the block that writes it; a module's outputs depend on its
// registers alone, so no combinational path crosses an instance boundary.
// Within that subset they are *entangled*: every always-block computes
// what it writes from a register some other block writes, every module
// output feeds another module or the root, the LED is a function of all of
// them, and every block $displays — a wrong update order, a lost commit, a
// stale wire or a wrong port changes something a test observes instead of
// hiding in logic nothing reads.
//
// The package is a leaf: it prints Verilog text and imports none of the
// packages that parse or run it, so any of their tests may import it.
package vgen

import (
	"fmt"
	"strings"
)

// Expr is an expression: F with one %s per argument. A leaf has none.
type Expr struct {
	F    string
	Args []*Expr
}

func (e *Expr) String() string { return fmt.Sprintf(e.F, strs(e.Args)...) }

func strs(es []*Expr) []any {
	out := make([]any, len(es))
	for i, e := range es {
		out[i] = e.String()
	}
	return out
}

func leaf(format string, args ...any) *Expr {
	return &Expr{F: strings.ReplaceAll(fmt.Sprintf(format, args...), "%", "%%")}
}

func op(f string, args ...*Expr) *Expr { return &Expr{F: f, Args: args} }

// Node is one line of Verilog — Text, with one %s per expression — and the
// lines nested under it, which Close ends: a declaration, an assignment, an
// instantiation or a statement by itself; a module, an always-block, an if
// or a case arm around theirs.
type Node struct {
	Text  string
	Exprs []*Expr
	Kids  []*Node
	Close string // "endmodule", "end", "endcase"; "" for a lone line
	Inst  string // the instance the line declares, when it declares one
}

func line(text string, exprs ...*Expr) *Node { return &Node{Text: text, Exprs: exprs} }

func (n *Node) print(sb *strings.Builder, indent string) {
	sb.WriteString(indent + fmt.Sprintf(n.Text, strs(n.Exprs)...) + "\n")
	for _, k := range n.Kids {
		k.print(sb, indent+"  ")
	}
	if n.Close != "" {
		sb.WriteString(indent + n.Close + "\n")
	}
}

func (n *Node) String() string {
	var sb strings.Builder
	n.print(&sb, "")
	return sb.String()
}

// Step is one move of a REPL session: press the pad (Pad >= 0), eval a
// fragment — module declarations and root items; Frag when generated, Src
// when written by hand — and run Ticks clock ticks.
type Step struct {
	Pad   int
	Frag  []*Node
	Src   string
	Ticks int
}

// Source is the text the step evals ("" when it evals nothing).
func (s Step) Source() string {
	var sb strings.Builder
	for _, n := range s.Frag {
		n.print(&sb, "")
	}
	return sb.String() + s.Src
}

// A Script is a named REPL session: a sequence of steps over the default
// prelude (clk, pad, led).
type Script struct {
	Name  string
	Steps []Step
}

// Program is a one-eval session: src, then ticks clock ticks.
func Program(name, src string, ticks int) Script {
	return Script{Name: name, Steps: []Step{{Pad: -1, Src: src, Ticks: ticks}}}
}

// Ticks is the length of the session's script.
func (s Script) Ticks() (n int) {
	for _, st := range s.Steps {
		n += st.Ticks
	}
	return n
}

// String prints the session as a script: what a failure report shows.
func (s Script) String() string {
	var sb strings.Builder
	for _, st := range s.Steps {
		if st.Pad >= 0 {
			fmt.Fprintf(&sb, "// press pad %d\n", st.Pad)
		}
		fmt.Fprintf(&sb, "%s// run %d ticks\n", st.Source(), st.Ticks)
	}
	return sb.String()
}
