package verilog

import (
	"fmt"
	"strings"
)

// Print renders a node back to Verilog source. The output reparses to an
// equivalent AST (round-trip property, tested in printer_test.go), which is
// what lets Cascade do source-to-source transformation for its hardware
// engines (paper §5.2). It is byte-stable: snapshots, checkpoints and the
// engine daemon are fed with it, and TestTextLayerGolden pins it.
func Print(n Node) string {
	var pr printer
	pr.node(n)
	return pr.sb.String()
}

type printer struct {
	sb     strings.Builder
	indent int
}

// nl starts a new line. Growing the builder here doubles it as it fills
// (where append would add a quarter), so a large module's text is copied
// about once on its way.
func (p *printer) nl() {
	p.sb.Grow(128)
	p.sb.WriteByte('\n')
	for i := 0; i < p.indent; i++ {
		p.sb.WriteString("  ")
	}
}

func (p *printer) str(s string) { p.sb.WriteString(s) }

// quote prints s as a string literal the lexer reads back as s: ", \,
// newline and tab are escaped, and every other byte stands for itself.
func (p *printer) quote(s string) {
	p.sb.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"':
			p.str(`\"`)
		case '\\':
			p.str(`\\`)
		case '\n':
			p.str(`\n`)
		case '\t':
			p.str(`\t`)
		default:
			p.sb.WriteByte(c)
		}
	}
	p.sb.WriteByte('"')
}

// unknown prints a placeholder for a node the printer has no case for.
func (p *printer) unknown(format string, n any) { p.str(fmt.Sprintf(format, n)) }

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
		p.unknown("/* ? %T */", n)
	}
}

func (p *printer) module(m *Module) {
	p.str("module ")
	p.str(m.Name)
	if len(m.Params) > 0 {
		p.str("#(")
		for i, pd := range m.Params {
			if i > 0 {
				p.str(", ")
			}
			p.str("parameter ")
			p.rng(pd.Range)
			p.str(pd.Name)
			p.str(" = ")
			p.expr(pd.Value, 0)
		}
		p.str(")")
	}
	p.str("(")
	for i, pt := range m.Ports {
		if i > 0 {
			p.str(", ")
		}
		p.str(pt.Dir.String())
		p.sb.WriteByte(' ')
		p.str(pt.Kind.String())
		p.sb.WriteByte(' ')
		p.rng(pt.Range)
		p.str(pt.Name)
		if pt.Init != nil {
			p.str(" = ")
			p.expr(pt.Init, 0)
		}
	}
	p.str(");")
	p.indent++
	for _, it := range m.Items {
		p.nl()
		p.item(it)
	}
	p.indent--
	p.nl()
	p.str("endmodule")
	p.nl()
}

func (p *printer) rng(r *Range) {
	if r == nil {
		return
	}
	p.str("[")
	p.expr(r.Hi, 0)
	p.str(":")
	p.expr(r.Lo, 0)
	p.str("] ")
}

func (p *printer) item(it Item) {
	switch x := it.(type) {
	case *NetDecl:
		p.str(x.Kind.String())
		p.sb.WriteByte(' ')
		if x.Kind != Integer {
			p.rng(x.Range)
		}
		for i, dn := range x.Names {
			if i > 0 {
				p.str(", ")
			}
			p.str(dn.Name)
			if dn.Array != nil {
				p.str(" [")
				p.expr(dn.Array.Hi, 0)
				p.str(":")
				p.expr(dn.Array.Lo, 0)
				p.str("]")
			}
			if dn.Init != nil {
				p.str(" = ")
				p.expr(dn.Init, 0)
			}
		}
		p.str(";")
	case *ParamDecl:
		kw := "parameter"
		if x.Local {
			kw = "localparam"
		}
		p.str(kw)
		p.sb.WriteByte(' ')
		p.rng(x.Range)
		p.str(x.Name)
		p.str(" = ")
		p.expr(x.Value, 0)
		p.str(";")
	case *ContAssign:
		p.str("assign ")
		p.expr(x.LHS, 0)
		p.str(" = ")
		p.expr(x.RHS, 0)
		p.str(";")
	case *AlwaysBlock:
		p.str("always @")
		if x.Star {
			p.str("(*)")
		} else {
			p.str("(")
			for i, ev := range x.Events {
				if i > 0 {
					p.str(" or ")
				}
				switch ev.Edge {
				case Posedge:
					p.str("posedge ")
				case Negedge:
					p.str("negedge ")
				}
				p.expr(ev.Expr, 0)
			}
			p.str(")")
		}
		p.str(" ")
		p.stmtInline(x.Body)
	case *InitialBlock:
		p.str("initial ")
		p.stmtInline(x.Body)
	case *Instance:
		p.str(x.ModName)
		if len(x.Params) > 0 {
			p.str("#(")
			for i, pa := range x.Params {
				if i > 0 {
					p.str(", ")
				}
				if pa.Name != "" {
					p.sb.WriteByte('.')
					p.str(pa.Name)
					p.sb.WriteByte('(')
					p.expr(pa.Expr, 0)
					p.str(")")
				} else {
					p.expr(pa.Expr, 0)
				}
			}
			p.str(")")
		}
		p.sb.WriteByte(' ')
		p.str(x.Name)
		p.sb.WriteByte('(')
		for i, c := range x.Conns {
			if i > 0 {
				p.str(", ")
			}
			if c.Name != "" {
				p.sb.WriteByte('.')
				p.str(c.Name)
				p.sb.WriteByte('(')
				if c.Expr != nil {
					p.expr(c.Expr, 0)
				}
				p.str(")")
			} else if c.Expr != nil {
				p.expr(c.Expr, 0)
			}
		}
		p.str(");")
	default:
		p.unknown("/* ? item %T */", it)
	}
}

// stmtInline prints a statement continuing the current line (used after
// always/initial headers and if/else).
func (p *printer) stmtInline(s Stmt) {
	if b, ok := s.(*Block); ok {
		p.str("begin")
		p.indent++
		for _, st := range b.Stmts {
			p.nl()
			p.stmt(st)
		}
		p.indent--
		p.nl()
		p.str("end")
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
		p.str("if (")
		p.expr(x.Cond, 0)
		p.str(") ")
		p.stmtInline(x.Then)
		if x.Else != nil {
			p.nl()
			p.str("else ")
			p.stmtInline(x.Else)
		}
	case *Case:
		kw := "case"
		if x.IsCasez {
			kw = "casez"
		}
		p.str(kw)
		p.str(" (")
		p.expr(x.Subject, 0)
		p.str(")")
		p.indent++
		for _, it := range x.Items {
			p.nl()
			if it.Exprs == nil {
				p.str("default: ")
			} else {
				for i, e := range it.Exprs {
					if i > 0 {
						p.str(", ")
					}
					p.expr(e, 0)
				}
				p.str(": ")
			}
			p.stmtInline(it.Body)
		}
		p.indent--
		p.nl()
		p.str("endcase")
	case *ProcAssign:
		p.expr(x.LHS, 0)
		if x.Blocking {
			p.str(" = ")
		} else {
			p.str(" <= ")
		}
		p.expr(x.RHS, 0)
		p.str(";")
	case *For:
		p.str("for (")
		p.expr(x.Init.LHS, 0)
		p.str(" = ")
		p.expr(x.Init.RHS, 0)
		p.str("; ")
		p.expr(x.Cond, 0)
		p.str("; ")
		p.expr(x.Post.LHS, 0)
		p.str(" = ")
		p.expr(x.Post.RHS, 0)
		p.str(") ")
		p.stmtInline(x.Body)
	case *SysTask:
		p.str(x.Name)
		if len(x.Args) > 0 {
			p.str("(")
			for i, a := range x.Args {
				if i > 0 {
					p.str(", ")
				}
				p.expr(a, 0)
			}
			p.str(")")
		}
		p.str(";")
	case *NullStmt:
		p.str(";")
	default:
		p.unknown("/* ? stmt %T */", s)
	}
}

var binOpText = [...]string{
	BAdd: "+", BSub: "-", BMul: "*", BDiv: "/", BMod: "%", BPow: "**",
	BEq: "==", BNeq: "!=", BCaseEq: "===", BCaseNeq: "!==",
	BLt: "<", BLe: "<=", BGt: ">", BGe: ">=",
	BLogAnd: "&&", BLogOr: "||",
	BBitAnd: "&", BBitOr: "|", BBitXor: "^", BBitXnor: "~^",
	BShl: "<<", BShr: ">>", BAShl: "<<<", BAShr: ">>>",
}

var binOpPrec = [...]int{
	BLogOr: 1, BLogAnd: 2, BBitOr: 3, BBitXor: 4, BBitXnor: 4, BBitAnd: 5,
	BEq: 6, BNeq: 6, BCaseEq: 6, BCaseNeq: 6,
	BLt: 7, BLe: 7, BGt: 7, BGe: 7,
	BShl: 8, BShr: 8, BAShl: 8, BAShr: 8,
	BAdd: 9, BSub: 9, BMul: 10, BDiv: 10, BMod: 10, BPow: 11,
}

var unOpText = [...]string{
	UNot: "!", UBitNot: "~", UNeg: "-", UPlus: "+",
	URedAnd: "&", URedOr: "|", URedXor: "^",
	URedNand: "~&", URedNor: "~|", URedXnor: "~^",
}

// Precedences above every binary operator's: a unary operator's operand,
// and the operand of a bit or part select, which binds tighter still.
const (
	unaryPrec   = 12
	postfixPrec = 13
)

// expr prints e, parenthesizing when its precedence is below prec.
func (p *printer) expr(e Expr, prec int) {
	switch x := e.(type) {
	case *Ident:
		p.str(x.Name)
	case *HierIdent:
		for i, part := range x.Parts {
			if i > 0 {
				p.sb.WriteByte('.')
			}
			p.str(part)
		}
	case *Number:
		p.str(x.Literal)
	case *StringLit:
		p.quote(x.Value)
	case *Unary:
		if prec > unaryPrec {
			// A select binds tighter: (~a)[0] is not ~a[0].
			p.str("(")
			p.expr(x, 0)
			p.str(")")
			break
		}
		p.str(unOpText[x.Op])
		if _, nested := x.X.(*Unary); nested {
			// Two operators in a row would lex as one: ~(&a) is not ~&a.
			p.str("(")
			p.expr(x.X, 0)
			p.str(")")
			break
		}
		p.expr(x.X, unaryPrec)
	case *Binary:
		myPrec := binOpPrec[x.Op]
		if myPrec < prec {
			p.str("(")
		}
		left := myPrec
		if x.Op == BPow {
			// Power is right-associative: (a ** b) ** c keeps its
			// parentheses.
			left++
		}
		p.expr(x.X, left)
		p.sb.WriteByte(' ')
		p.str(binOpText[x.Op])
		p.sb.WriteByte(' ')
		p.expr(x.Y, myPrec+1)
		if myPrec < prec {
			p.str(")")
		}
	case *Ternary:
		if prec > 0 {
			p.str("(")
		}
		p.expr(x.Cond, 1)
		p.str(" ? ")
		p.expr(x.Then, 0)
		p.str(" : ")
		p.expr(x.Else, 0)
		if prec > 0 {
			p.str(")")
		}
	case *Index:
		p.expr(x.X, postfixPrec)
		p.str("[")
		p.expr(x.Idx, 0)
		p.str("]")
	case *RangeSel:
		p.expr(x.X, postfixPrec)
		p.str("[")
		p.expr(x.Hi, 0)
		p.str(":")
		p.expr(x.Lo, 0)
		p.str("]")
	case *Concat:
		p.str("{")
		for i, part := range x.Parts {
			if i > 0 {
				p.str(", ")
			}
			p.expr(part, 0)
		}
		p.str("}")
	case *Repl:
		p.str("{")
		p.expr(x.Count, unaryPrec)
		p.str("{")
		p.expr(x.X, 0)
		p.str("}}")
	case *SysCall:
		p.str(x.Name)
		if len(x.Args) > 0 {
			p.str("(")
			for i, a := range x.Args {
				if i > 0 {
					p.str(", ")
				}
				p.expr(a, 0)
			}
			p.str(")")
		}
	default:
		p.unknown("/* ? expr %T */", e)
	}
}
