package verilog

import (
	"fmt"
	"strings"
)

// Print renders a node back to Verilog source. The output reparses to an
// equivalent AST (round-trip property, tested in printer_test.go), which is
// what lets Cascade do source-to-source transformation for its hardware
// engines (paper §5.2).
func Print(n Node) string {
	var pr printer
	pr.node(n)
	return pr.sb.String()
}

type printer struct {
	sb     strings.Builder
	indent int
}

func (p *printer) nl() {
	p.sb.WriteByte('\n')
	for i := 0; i < p.indent; i++ {
		p.sb.WriteString("  ")
	}
}

func (p *printer) printf(format string, args ...any) {
	fmt.Fprintf(&p.sb, format, args...)
}

func (p *printer) node(n Node) {
	switch x := n.(type) {
	case *Module:
		p.module(x)
	case Item:
		p.item(x)
	case Stmt:
		p.stmt(x)
	case Expr:
		p.expr(x, 0)
	default:
		p.printf("/* ? %T */", n)
	}
}

func (p *printer) module(m *Module) {
	p.printf("module %s", m.Name)
	if len(m.Params) > 0 {
		p.printf("#(")
		for i, pd := range m.Params {
			if i > 0 {
				p.printf(", ")
			}
			p.printf("parameter ")
			p.rng(pd.Range)
			p.printf("%s = ", pd.Name)
			p.expr(pd.Value, 0)
		}
		p.printf(")")
	}
	p.printf("(")
	for i, pt := range m.Ports {
		if i > 0 {
			p.printf(", ")
		}
		p.printf("%s %s ", pt.Dir, pt.Kind)
		p.rng(pt.Range)
		p.printf("%s", pt.Name)
		if pt.Init != nil {
			p.printf(" = ")
			p.expr(pt.Init, 0)
		}
	}
	p.printf(");")
	p.indent++
	for _, it := range m.Items {
		p.nl()
		p.item(it)
	}
	p.indent--
	p.nl()
	p.printf("endmodule")
	p.nl()
}

func (p *printer) rng(r *Range) {
	if r == nil {
		return
	}
	p.printf("[")
	p.expr(r.Hi, 0)
	p.printf(":")
	p.expr(r.Lo, 0)
	p.printf("] ")
}

func (p *printer) item(it Item) {
	switch x := it.(type) {
	case *NetDecl:
		p.printf("%s ", x.Kind)
		if x.Kind != Integer {
			p.rng(x.Range)
		}
		for i, dn := range x.Names {
			if i > 0 {
				p.printf(", ")
			}
			p.printf("%s", dn.Name)
			if dn.Array != nil {
				p.printf(" [")
				p.expr(dn.Array.Hi, 0)
				p.printf(":")
				p.expr(dn.Array.Lo, 0)
				p.printf("]")
			}
			if dn.Init != nil {
				p.printf(" = ")
				p.expr(dn.Init, 0)
			}
		}
		p.printf(";")
	case *ParamDecl:
		kw := "parameter"
		if x.Local {
			kw = "localparam"
		}
		p.printf("%s ", kw)
		p.rng(x.Range)
		p.printf("%s = ", x.Name)
		p.expr(x.Value, 0)
		p.printf(";")
	case *ContAssign:
		p.printf("assign ")
		p.expr(x.LHS, 0)
		p.printf(" = ")
		p.expr(x.RHS, 0)
		p.printf(";")
	case *AlwaysBlock:
		p.printf("always @")
		if x.Star {
			p.printf("(*)")
		} else {
			p.printf("(")
			for i, ev := range x.Events {
				if i > 0 {
					p.printf(" or ")
				}
				switch ev.Edge {
				case Posedge:
					p.printf("posedge ")
				case Negedge:
					p.printf("negedge ")
				}
				p.expr(ev.Expr, 0)
			}
			p.printf(")")
		}
		p.printf(" ")
		p.stmtInline(x.Body)
	case *InitialBlock:
		p.printf("initial ")
		p.stmtInline(x.Body)
	case *Instance:
		p.printf("%s", x.ModName)
		if len(x.Params) > 0 {
			p.printf("#(")
			for i, pa := range x.Params {
				if i > 0 {
					p.printf(", ")
				}
				if pa.Name != "" {
					p.printf(".%s(", pa.Name)
					p.expr(pa.Expr, 0)
					p.printf(")")
				} else {
					p.expr(pa.Expr, 0)
				}
			}
			p.printf(")")
		}
		p.printf(" %s(", x.Name)
		for i, c := range x.Conns {
			if i > 0 {
				p.printf(", ")
			}
			if c.Name != "" {
				p.printf(".%s(", c.Name)
				if c.Expr != nil {
					p.expr(c.Expr, 0)
				}
				p.printf(")")
			} else if c.Expr != nil {
				p.expr(c.Expr, 0)
			}
		}
		p.printf(");")
	default:
		p.printf("/* ? item %T */", it)
	}
}

// stmtInline prints a statement continuing the current line (used after
// always/initial headers and if/else).
func (p *printer) stmtInline(s Stmt) {
	if b, ok := s.(*Block); ok {
		p.printf("begin")
		p.indent++
		for _, st := range b.Stmts {
			p.nl()
			p.stmt(st)
		}
		p.indent--
		p.nl()
		p.printf("end")
		return
	}
	p.indent++
	p.nl()
	p.stmt(s)
	p.indent--
}

func (p *printer) stmt(s Stmt) {
	switch x := s.(type) {
	case *Block:
		p.stmtInline(x)
	case *If:
		p.printf("if (")
		p.expr(x.Cond, 0)
		p.printf(") ")
		p.stmtInline(x.Then)
		if x.Else != nil {
			p.nl()
			p.printf("else ")
			p.stmtInline(x.Else)
		}
	case *Case:
		kw := "case"
		if x.IsCasez {
			kw = "casez"
		}
		p.printf("%s (", kw)
		p.expr(x.Subject, 0)
		p.printf(")")
		p.indent++
		for _, it := range x.Items {
			p.nl()
			if it.Exprs == nil {
				p.printf("default: ")
			} else {
				for i, e := range it.Exprs {
					if i > 0 {
						p.printf(", ")
					}
					p.expr(e, 0)
				}
				p.printf(": ")
			}
			p.stmtInline(it.Body)
		}
		p.indent--
		p.nl()
		p.printf("endcase")
	case *ProcAssign:
		p.expr(x.LHS, 0)
		if x.Blocking {
			p.printf(" = ")
		} else {
			p.printf(" <= ")
		}
		p.expr(x.RHS, 0)
		p.printf(";")
	case *For:
		p.printf("for (")
		p.expr(x.Init.LHS, 0)
		p.printf(" = ")
		p.expr(x.Init.RHS, 0)
		p.printf("; ")
		p.expr(x.Cond, 0)
		p.printf("; ")
		p.expr(x.Post.LHS, 0)
		p.printf(" = ")
		p.expr(x.Post.RHS, 0)
		p.printf(") ")
		p.stmtInline(x.Body)
	case *SysTask:
		p.printf("%s", x.Name)
		if len(x.Args) > 0 {
			p.printf("(")
			for i, a := range x.Args {
				if i > 0 {
					p.printf(", ")
				}
				p.expr(a, 0)
			}
			p.printf(")")
		}
		p.printf(";")
	case *NullStmt:
		p.printf(";")
	default:
		p.printf("/* ? stmt %T */", s)
	}
}

var binOpText = map[BinaryOp]string{
	BAdd: "+", BSub: "-", BMul: "*", BDiv: "/", BMod: "%", BPow: "**",
	BEq: "==", BNeq: "!=", BCaseEq: "===", BCaseNeq: "!==",
	BLt: "<", BLe: "<=", BGt: ">", BGe: ">=",
	BLogAnd: "&&", BLogOr: "||",
	BBitAnd: "&", BBitOr: "|", BBitXor: "^", BBitXnor: "~^",
	BShl: "<<", BShr: ">>", BAShl: "<<<", BAShr: ">>>",
}

var binOpPrec = map[BinaryOp]int{
	BLogOr: 1, BLogAnd: 2, BBitOr: 3, BBitXor: 4, BBitXnor: 4, BBitAnd: 5,
	BEq: 6, BNeq: 6, BCaseEq: 6, BCaseNeq: 6,
	BLt: 7, BLe: 7, BGt: 7, BGe: 7,
	BShl: 8, BShr: 8, BAShl: 8, BAShr: 8,
	BAdd: 9, BSub: 9, BMul: 10, BDiv: 10, BMod: 10, BPow: 11,
}

var unOpText = map[UnaryOp]string{
	UNot: "!", UBitNot: "~", UNeg: "-", UPlus: "+",
	URedAnd: "&", URedOr: "|", URedXor: "^",
	URedNand: "~&", URedNor: "~|", URedXnor: "~^",
}

// expr prints e, parenthesizing when its precedence is below prec.
func (p *printer) expr(e Expr, prec int) {
	switch x := e.(type) {
	case *Ident:
		p.printf("%s", x.Name)
	case *HierIdent:
		p.printf("%s", strings.Join(x.Parts, "."))
	case *Number:
		p.printf("%s", x.Literal)
	case *StringLit:
		p.printf("%q", x.Value)
	case *Unary:
		p.printf("%s", unOpText[x.Op])
		if _, nested := x.X.(*Unary); nested {
			// Two operators in a row would lex as one: ~(&a) is not ~&a.
			p.printf("(")
			p.expr(x.X, 0)
			p.printf(")")
			break
		}
		p.expr(x.X, 12)
	case *Binary:
		myPrec := binOpPrec[x.Op]
		if myPrec < prec {
			p.printf("(")
		}
		p.expr(x.X, myPrec)
		p.printf(" %s ", binOpText[x.Op])
		p.expr(x.Y, myPrec+1)
		if myPrec < prec {
			p.printf(")")
		}
	case *Ternary:
		if prec > 0 {
			p.printf("(")
		}
		p.expr(x.Cond, 1)
		p.printf(" ? ")
		p.expr(x.Then, 0)
		p.printf(" : ")
		p.expr(x.Else, 0)
		if prec > 0 {
			p.printf(")")
		}
	case *Index:
		p.expr(x.X, 12)
		p.printf("[")
		p.expr(x.Idx, 0)
		p.printf("]")
	case *RangeSel:
		p.expr(x.X, 12)
		p.printf("[")
		p.expr(x.Hi, 0)
		p.printf(":")
		p.expr(x.Lo, 0)
		p.printf("]")
	case *Concat:
		p.printf("{")
		for i, part := range x.Parts {
			if i > 0 {
				p.printf(", ")
			}
			p.expr(part, 0)
		}
		p.printf("}")
	case *Repl:
		p.printf("{")
		p.expr(x.Count, 12)
		p.printf("{")
		p.expr(x.X, 0)
		p.printf("}}")
	case *SysCall:
		p.printf("%s", x.Name)
		if len(x.Args) > 0 {
			p.printf("(")
			for i, a := range x.Args {
				if i > 0 {
					p.printf(", ")
				}
				p.expr(a, 0)
			}
			p.printf(")")
		}
	default:
		p.printf("/* ? expr %T */", e)
	}
}
