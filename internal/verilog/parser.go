package verilog

import (
	"errors"
	"fmt"

	"cascade/internal/bits"
)

// Parser is a recursive-descent parser for the supported Verilog subset.
// It recovers from errors at item boundaries so a REPL can report several
// problems per line.
type Parser struct {
	toks []Token
	pos  int
	errs []error
}

// parseError aborts the current item; the parser syncs and continues.
type parseError struct{ err error }

// NewParser returns a parser over src. Lexical errors are carried into the
// parser's error list.
func NewParser(src string) *Parser {
	toks, lexErrs := LexAll(src)
	return &Parser{toks: toks, errs: lexErrs}
}

func (p *Parser) cur() Token { return p.toks[p.pos] }

func (p *Parser) next() Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *Parser) at(k TokenKind) bool { return p.cur().Kind == k }

func (p *Parser) accept(k TokenKind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expect(k TokenKind) Token {
	if !p.at(k) {
		p.fail("expected %s, found %s", k, p.cur())
	}
	return p.next()
}

func (p *Parser) fail(format string, args ...any) {
	err := fmt.Errorf("%s: %s", p.cur().Pos, fmt.Sprintf(format, args...))
	panic(parseError{err})
}

// recoverItem converts a parseError panic into a recorded error and syncs
// the token stream to the next likely item boundary.
func (p *Parser) recoverItem() {
	if r := recover(); r != nil {
		pe, ok := r.(parseError)
		if !ok {
			panic(r)
		}
		p.errs = append(p.errs, pe.err)
		p.sync()
	}
}

func (p *Parser) sync() {
	for {
		switch p.cur().Kind {
		case EOF, KwEndmodule, KwModule:
			return
		case Semi, KwEnd, KwEndcase:
			p.next()
			return
		}
		p.next()
	}
}

// ParseSourceText parses a whole compilation unit.
func ParseSourceText(src string) (*SourceText, []error) {
	p := NewParser(src)
	st := &SourceText{}
	for !p.at(EOF) {
		before := p.pos
		m := p.parseModuleRecover()
		if m != nil {
			st.Modules = append(st.Modules, m)
		}
		if p.pos == before {
			// Error recovery stopped on a boundary token without
			// consuming it; force progress.
			p.next()
		}
		if len(p.errs) > 200 {
			p.errs = append(p.errs, errors.New("too many errors; giving up"))
			break
		}
	}
	if len(p.errs) > 0 {
		return st, p.errs
	}
	return st, nil
}

// ParseItems parses a sequence of module items (REPL input that extends
// the root module).
func ParseItems(src string) ([]Item, []error) {
	p := NewParser(src)
	var items []Item
	for !p.at(EOF) {
		before := p.pos
		it := p.parseItemRecover()
		if it != nil {
			items = append(items, it)
		}
		if p.pos == before {
			p.next() // force progress past an unconsumed boundary token
		}
		if len(p.errs) > 200 {
			p.errs = append(p.errs, errors.New("too many errors; giving up"))
			break
		}
	}
	if len(p.errs) > 0 {
		return items, p.errs
	}
	return items, nil
}

// ParseProgramFragment parses REPL or batch input that freely mixes
// module declarations (added to the outer scope) with module items
// (appended to the implicit root module), the two forms Cascade's eval
// accepts (paper §3.1).
func ParseProgramFragment(src string) ([]*Module, []Item, []error) {
	p := NewParser(src)
	var mods []*Module
	var items []Item
	for !p.at(EOF) {
		before := p.pos
		if p.at(KwModule) {
			if m := p.parseModuleRecover(); m != nil {
				mods = append(mods, m)
			}
		} else if it := p.parseItemRecover(); it != nil {
			items = append(items, it)
		}
		if p.pos == before {
			p.next() // force progress past an unconsumed boundary token
		}
		if len(p.errs) > 200 {
			p.errs = append(p.errs, errors.New("too many errors; giving up"))
			break
		}
	}
	return mods, items, p.errs
}

// ParseExpr parses a single expression (used by tests and the REPL's
// immediate-expression mode).
func ParseExpr(src string) (e Expr, errs []error) {
	p := NewParser(src)
	defer func() {
		if r := recover(); r != nil {
			pe, ok := r.(parseError)
			if !ok {
				panic(r)
			}
			errs = append(p.errs, pe.err)
		}
	}()
	e = p.parseExpr()
	if !p.at(EOF) {
		p.errs = append(p.errs, fmt.Errorf("%s: trailing input after expression", p.cur().Pos))
	}
	if len(p.errs) > 0 {
		return e, p.errs
	}
	return e, nil
}

func (p *Parser) parseModuleRecover() *Module {
	defer p.recoverItem()
	if !p.at(KwModule) {
		p.fail("expected module, found %s", p.cur())
	}
	return p.parseModule()
}

func (p *Parser) parseItemRecover() Item {
	defer p.recoverItem()
	return p.parseItem()
}

func (p *Parser) parseModule() *Module {
	tok := p.expect(KwModule)
	name := p.expect(IDENT)
	m := &Module{NamePos: tok.Pos, Name: name.Text}

	if p.accept(Hash) {
		p.expect(LParen)
		for {
			p.expect(KwParameter)
			var r *Range
			if p.at(LBrack) {
				r = p.parseRange()
			}
			pn := p.expect(IDENT)
			p.expect(Eq)
			val := p.parseExpr()
			m.Params = append(m.Params, &ParamDecl{DeclPos: pn.Pos, Range: r, Name: pn.Text, Value: val})
			if !p.accept(Comma) {
				break
			}
		}
		p.expect(RParen)
	}

	if p.accept(LParen) {
		if !p.at(RParen) {
			dir, kind, rng := Input, Wire, (*Range)(nil)
			haveDir := false
			for {
				if p.at(KwInput) || p.at(KwOutput) || p.at(KwInout) {
					switch p.next().Kind {
					case KwInput:
						dir = Input
					case KwOutput:
						dir = Output
					default:
						dir = Inout
					}
					haveDir = true
					kind = Wire
					rng = nil
					if p.accept(KwWire) {
						kind = Wire
					} else if p.accept(KwReg) {
						kind = Reg
					}
					if p.at(LBrack) {
						rng = p.parseRange()
					}
				}
				if !haveDir {
					p.fail("port list must declare a direction (ANSI style)")
				}
				pn := p.expect(IDENT)
				port := &Port{PortPos: pn.Pos, Dir: dir, Kind: kind, Range: cloneRange(rng), Name: pn.Text}
				if p.accept(Eq) {
					if port.Kind != Reg || port.Dir != Output {
						p.fail("only output reg ports may carry an initializer")
					}
					port.Init = p.parseExpr()
				}
				m.Ports = append(m.Ports, port)
				if !p.accept(Comma) {
					break
				}
			}
		}
		p.expect(RParen)
	}
	p.expect(Semi)

	for !p.at(KwEndmodule) && !p.at(EOF) {
		before := p.pos
		it := p.parseItemRecover()
		if it != nil {
			m.Items = append(m.Items, it)
		}
		if p.pos == before {
			p.next() // force progress past an unconsumed boundary token
		}
	}
	p.expect(KwEndmodule)
	return m
}

func cloneRange(r *Range) *Range {
	if r == nil {
		return nil
	}
	return &Range{Hi: r.Hi, Lo: r.Lo}
}

func (p *Parser) parseRange() *Range {
	p.expect(LBrack)
	hi := p.parseExpr()
	p.expect(Colon)
	lo := p.parseExpr()
	p.expect(RBrack)
	return &Range{Hi: hi, Lo: lo}
}

// parseItem parses one module item.
func (p *Parser) parseItem() Item {
	switch p.cur().Kind {
	case KwWire, KwReg, KwInteger:
		return p.parseNetDecl()
	case KwParameter, KwLocalparam:
		return p.parseParamDecl()
	case KwAssign:
		return p.parseContAssign()
	case KwAlways:
		return p.parseAlways()
	case KwInitial:
		tok := p.next()
		return &InitialBlock{InitialPos: tok.Pos, Body: p.parseStmt()}
	case IDENT:
		return p.parseInstance()
	case Semi:
		p.next()
		return nil
	}
	p.fail("expected module item, found %s", p.cur())
	return nil
}

func (p *Parser) parseNetDecl() *NetDecl {
	tok := p.next()
	d := &NetDecl{DeclPos: tok.Pos}
	switch tok.Kind {
	case KwWire:
		d.Kind = Wire
	case KwReg:
		d.Kind = Reg
	case KwInteger:
		d.Kind = Integer
	}
	if d.Kind != Integer && p.at(LBrack) {
		d.Range = p.parseRange()
	}
	for {
		n := p.expect(IDENT)
		dn := &DeclName{NamePos: n.Pos, Name: n.Text}
		if p.at(LBrack) {
			if d.Kind == Wire {
				p.fail("wire %s cannot have an unpacked array dimension", n.Text)
			}
			dn.Array = p.parseRange()
		}
		if p.accept(Eq) {
			dn.Init = p.parseExpr()
		}
		d.Names = append(d.Names, dn)
		if !p.accept(Comma) {
			break
		}
	}
	p.expect(Semi)
	return d
}

func (p *Parser) parseParamDecl() *ParamDecl {
	tok := p.next()
	local := tok.Kind == KwLocalparam
	var r *Range
	if p.at(LBrack) {
		r = p.parseRange()
	}
	n := p.expect(IDENT)
	p.expect(Eq)
	v := p.parseExpr()
	p.expect(Semi)
	return &ParamDecl{DeclPos: tok.Pos, Local: local, Range: r, Name: n.Text, Value: v}
}

func (p *Parser) parseContAssign() *ContAssign {
	tok := p.expect(KwAssign)
	lhs := p.parseLValue()
	p.expect(Eq)
	rhs := p.parseExpr()
	p.expect(Semi)
	return &ContAssign{AssignPos: tok.Pos, LHS: lhs, RHS: rhs}
}

func (p *Parser) parseAlways() *AlwaysBlock {
	tok := p.expect(KwAlways)
	a := &AlwaysBlock{AlwaysPos: tok.Pos}
	p.expect(At)
	if p.accept(StarOp) {
		a.Star = true
	} else {
		p.expect(LParen)
		if p.accept(StarOp) {
			a.Star = true
		} else {
			for {
				ev := Event{Edge: AnyEdge}
				if p.accept(KwPosedge) {
					ev.Edge = Posedge
				} else if p.accept(KwNegedge) {
					ev.Edge = Negedge
				}
				ev.Expr = p.parseExpr()
				a.Events = append(a.Events, ev)
				if !p.accept(KwOr) && !p.accept(Comma) {
					break
				}
			}
		}
		p.expect(RParen)
	}
	a.Body = p.parseStmt()
	return a
}

func (p *Parser) parseInstance() *Instance {
	mod := p.expect(IDENT)
	inst := &Instance{InstPos: mod.Pos, ModName: mod.Text}
	if p.accept(Hash) {
		p.expect(LParen)
		if !p.at(RParen) {
			for {
				pa := &ParamAssign{}
				if p.accept(Dot) {
					pa.Name = p.expect(IDENT).Text
					p.expect(LParen)
					pa.Expr = p.parseExpr()
					p.expect(RParen)
				} else {
					pa.Expr = p.parseExpr()
				}
				inst.Params = append(inst.Params, pa)
				if !p.accept(Comma) {
					break
				}
			}
		}
		p.expect(RParen)
	}
	name := p.expect(IDENT)
	inst.Name = name.Text
	p.expect(LParen)
	if !p.at(RParen) {
		for {
			c := &PortConn{ConnPos: p.cur().Pos}
			if p.accept(Dot) {
				c.Name = p.expect(IDENT).Text
				p.expect(LParen)
				if !p.at(RParen) {
					c.Expr = p.parseExpr()
				}
				p.expect(RParen)
			} else {
				c.Expr = p.parseExpr()
			}
			inst.Conns = append(inst.Conns, c)
			if !p.accept(Comma) {
				break
			}
		}
	}
	p.expect(RParen)
	p.expect(Semi)
	return inst
}

// parseStmt parses one procedural statement.
func (p *Parser) parseStmt() Stmt {
	switch p.cur().Kind {
	case KwBegin:
		tok := p.next()
		b := &Block{BeginPos: tok.Pos}
		for !p.at(KwEnd) && !p.at(EOF) {
			b.Stmts = append(b.Stmts, p.parseStmt())
		}
		p.expect(KwEnd)
		return b
	case KwIf:
		tok := p.next()
		p.expect(LParen)
		cond := p.parseExpr()
		p.expect(RParen)
		then := p.parseStmt()
		var els Stmt
		if p.accept(KwElse) {
			els = p.parseStmt()
		}
		return &If{IfPos: tok.Pos, Cond: cond, Then: then, Else: els}
	case KwCase, KwCasez:
		return p.parseCase()
	case KwFor:
		return p.parseFor()
	case SYSIDENT:
		return p.parseSysTask()
	case Semi:
		tok := p.next()
		return &NullStmt{SemiPos: tok.Pos}
	case IDENT, LBrace:
		return p.parseProcAssign()
	}
	p.fail("expected statement, found %s", p.cur())
	return nil
}

func (p *Parser) parseCase() *Case {
	tok := p.next()
	c := &Case{CasePos: tok.Pos, IsCasez: tok.Kind == KwCasez}
	p.expect(LParen)
	c.Subject = p.parseExpr()
	p.expect(RParen)
	for !p.at(KwEndcase) && !p.at(EOF) {
		it := &CaseItem{ItemPos: p.cur().Pos}
		if p.accept(KwDefault) {
			p.accept(Colon)
		} else {
			for {
				it.Exprs = append(it.Exprs, p.parseExpr())
				if !p.accept(Comma) {
					break
				}
			}
			p.expect(Colon)
		}
		it.Body = p.parseStmt()
		c.Items = append(c.Items, it)
	}
	p.expect(KwEndcase)
	return c
}

func (p *Parser) parseFor() *For {
	tok := p.expect(KwFor)
	p.expect(LParen)
	init := p.parseSimpleAssign()
	p.expect(Semi)
	cond := p.parseExpr()
	p.expect(Semi)
	post := p.parseSimpleAssign()
	p.expect(RParen)
	body := p.parseStmt()
	return &For{ForPos: tok.Pos, Init: init, Cond: cond, Post: post, Body: body}
}

// parseSimpleAssign parses "lvalue = expr" without a trailing semicolon
// (for-loop init/post clauses).
func (p *Parser) parseSimpleAssign() *ProcAssign {
	lhs := p.parseLValue()
	tok := p.expect(Eq)
	rhs := p.parseExpr()
	return &ProcAssign{AssignPos: tok.Pos, Blocking: true, LHS: lhs, RHS: rhs}
}

func (p *Parser) parseSysTask() *SysTask {
	tok := p.expect(SYSIDENT)
	st := &SysTask{TaskPos: tok.Pos, Name: tok.Text}
	if p.accept(LParen) {
		if !p.at(RParen) {
			for {
				st.Args = append(st.Args, p.parseExpr())
				if !p.accept(Comma) {
					break
				}
			}
		}
		p.expect(RParen)
	}
	p.expect(Semi)
	return st
}

func (p *Parser) parseProcAssign() *ProcAssign {
	lhs := p.parseLValue()
	var blocking bool
	switch p.cur().Kind {
	case Eq:
		blocking = true
	case LtEq:
		blocking = false
	default:
		p.fail("expected = or <= after lvalue, found %s", p.cur())
	}
	tok := p.next()
	rhs := p.parseExpr()
	p.expect(Semi)
	return &ProcAssign{AssignPos: tok.Pos, Blocking: blocking, LHS: lhs, RHS: rhs}
}

// parseLValue parses an assignment target: an identifier, hierarchical
// identifier, bit/part select, or concatenation of lvalues.
func (p *Parser) parseLValue() Expr {
	if p.at(LBrace) {
		tok := p.next()
		c := &Concat{LPos: tok.Pos}
		for {
			c.Parts = append(c.Parts, p.parseLValue())
			if !p.accept(Comma) {
				break
			}
		}
		p.expect(RBrace)
		return c
	}
	base := p.parsePrimaryIdent()
	for p.at(LBrack) {
		lpos := p.next().Pos
		first := p.parseExpr()
		if p.accept(Colon) {
			lo := p.parseExpr()
			p.expect(RBrack)
			base = &RangeSel{LPos: lpos, X: base, Hi: first, Lo: lo}
		} else {
			p.expect(RBrack)
			base = &Index{LPos: lpos, X: base, Idx: first}
		}
	}
	return base
}

func (p *Parser) parsePrimaryIdent() Expr {
	n := p.expect(IDENT)
	if p.at(Dot) {
		parts := []string{n.Text}
		for p.accept(Dot) {
			parts = append(parts, p.expect(IDENT).Text)
		}
		return &HierIdent{IdentPos: n.Pos, Parts: parts}
	}
	return &Ident{IdentPos: n.Pos, Name: n.Text}
}

// Operator precedence, lowest first. Level 0 is the ternary conditional,
// handled separately in parseExpr.
var binPrec = map[TokenKind]int{
	OrOr:   1,
	AndAnd: 2,
	Pipe:   3,
	Caret:  4, TildeXor: 4,
	Amp:  5,
	EqEq: 6, NotEq: 6, CaseEq: 6, CaseNotEq: 6,
	Lt: 7, LtEq: 7, Gt: 7, GtEq: 7,
	Shl: 8, Shr: 8, AShl: 8, AShr: 8,
	PlusOp: 9, MinusOp: 9,
	StarOp: 10, SlashOp: 10, PercentOp: 10,
	PowerOp: 11,
}

var binOps = map[TokenKind]BinaryOp{
	OrOr: BLogOr, AndAnd: BLogAnd, Pipe: BBitOr, Caret: BBitXor, TildeXor: BBitXnor,
	Amp: BBitAnd, EqEq: BEq, NotEq: BNeq, CaseEq: BCaseEq, CaseNotEq: BCaseNeq,
	Lt: BLt, LtEq: BLe, Gt: BGt, GtEq: BGe,
	Shl: BShl, Shr: BShr, AShl: BAShl, AShr: BAShr,
	PlusOp: BAdd, MinusOp: BSub, StarOp: BMul, SlashOp: BDiv, PercentOp: BMod,
	PowerOp: BPow,
}

// parseExpr parses a full expression including the ternary conditional.
func (p *Parser) parseExpr() Expr {
	cond := p.parseBinary(1)
	if p.at(Question) {
		tok := p.next()
		then := p.parseExpr()
		p.expect(Colon)
		els := p.parseExpr()
		return &Ternary{QPos: tok.Pos, Cond: cond, Then: then, Else: els}
	}
	return cond
}

func (p *Parser) parseBinary(minPrec int) Expr {
	lhs := p.parseUnary()
	for {
		prec, ok := binPrec[p.cur().Kind]
		if !ok || prec < minPrec {
			return lhs
		}
		tok := p.next()
		// Power is right-associative; everything else left-associative.
		nextMin := prec + 1
		if tok.Kind == PowerOp {
			nextMin = prec
		}
		rhs := p.parseBinary(nextMin)
		lhs = &Binary{OpPos: tok.Pos, Op: binOps[tok.Kind], X: lhs, Y: rhs}
	}
}

var unaryOps = map[TokenKind]UnaryOp{
	Bang: UNot, Tilde: UBitNot, MinusOp: UNeg, PlusOp: UPlus,
	Amp: URedAnd, Pipe: URedOr, Caret: URedXor,
	TildeAmp: URedNand, TildePipe: URedNor, TildeXor: URedXnor,
}

func (p *Parser) parseUnary() Expr {
	if op, ok := unaryOps[p.cur().Kind]; ok {
		tok := p.next()
		return &Unary{OpPos: tok.Pos, Op: op, X: p.parseUnary()}
	}
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() Expr {
	e := p.parsePrimary()
	for p.at(LBrack) {
		lpos := p.next().Pos
		first := p.parseExpr()
		if p.accept(Colon) {
			lo := p.parseExpr()
			p.expect(RBrack)
			e = &RangeSel{LPos: lpos, X: e, Hi: first, Lo: lo}
		} else {
			p.expect(RBrack)
			e = &Index{LPos: lpos, X: e, Idx: first}
		}
	}
	return e
}

func (p *Parser) parsePrimary() Expr {
	switch p.cur().Kind {
	case NUMBER:
		tok := p.next()
		v, mask, err := bits.ParseMaskedLiteral(tok.Text)
		if err != nil {
			p.fail("%v", err)
		}
		sized := false
		for _, c := range tok.Text {
			if c == '\'' {
				sized = true
				break
			}
		}
		return &Number{NumPos: tok.Pos, Literal: tok.Text, Val: v, Mask: mask, Sized: sized}
	case STRING:
		tok := p.next()
		return &StringLit{StrPos: tok.Pos, Value: tok.Text}
	case IDENT:
		return p.parsePrimaryIdent()
	case SYSIDENT:
		tok := p.next()
		call := &SysCall{CallPos: tok.Pos, Name: tok.Text}
		if p.accept(LParen) {
			if !p.at(RParen) {
				for {
					call.Args = append(call.Args, p.parseExpr())
					if !p.accept(Comma) {
						break
					}
				}
			}
			p.expect(RParen)
		}
		return call
	case LParen:
		p.next()
		e := p.parseExpr()
		p.expect(RParen)
		return e
	case LBrace:
		tok := p.next()
		first := p.parseExpr()
		if p.at(LBrace) {
			// Replication: {n{expr}}.
			p.next()
			inner := p.parseExpr()
			p.expect(RBrace)
			p.expect(RBrace)
			return &Repl{LPos: tok.Pos, Count: first, X: inner}
		}
		c := &Concat{LPos: tok.Pos, Parts: []Expr{first}}
		for p.accept(Comma) {
			c.Parts = append(c.Parts, p.parseExpr())
		}
		p.expect(RBrace)
		return c
	}
	p.fail("expected expression, found %s", p.cur())
	return nil
}
