package verilog

import (
	"errors"
	"fmt"
	"strings"

	"cascade/internal/bits"
)

// Parser is a recursive-descent parser for the supported Verilog subset.
// It is LL(1) and never backtracks, so it reads its tokens straight from a
// Lexer, one at a time. It recovers from errors at item boundaries so a
// REPL can report several problems per line.
type Parser struct {
	lex  Lexer
	tok  Token // the current token
	n    int   // tokens consumed, so a loop can tell it made progress
	errs []error

	// lexErrs is how many lexical errors the whole source has when an
	// earlier pass counted them, else -1; see tooMany.
	lexErrs int

	// The most common nodes come from slabs.
	idents   slab[Ident]
	numbers  slab[smallNumber]
	binaries slab[Binary]
	ranges   slab[Range]
	decls    slab[netDecl]
	assigns  slab[ContAssign]
	procs    slab[ProcAssign]
	always   slab[alwaysBlock]
}

// slab hands out the nodes of one type from chunks allocated in bulk, so
// a parse allocates a few chunks rather than an object per node. A chunk
// holds an eighth of what the parse has taken of the type so far, at
// most 64: a parse's nodes of a type carry at most an eighth more room
// than they use, a small fragment's none.
type slab[T any] struct {
	free  []T
	taken int
}

func (s *slab[T]) new() *T {
	if len(s.free) == 0 {
		s.free = make([]T, min(64, s.taken/8+1))
	}
	t := &s.free[0]
	s.free = s.free[1:]
	s.taken++
	return t
}

// netDecl is a NetDecl allocated with its first declarator.
type netDecl struct {
	d     NetDecl
	name  DeclName
	names [1]*DeclName
}

// alwaysBlock is an AlwaysBlock allocated with its first event.
type alwaysBlock struct {
	a      AlwaysBlock
	events [1]Event
}

// parseError aborts the current item; the parser syncs and continues.
type parseError struct{ err error }

// maxErrors is how many errors a parse collects before it gives up.
const maxErrors = 200

// init starts p over src; lexErrs is as for the field.
func (p *Parser) init(src string, lexErrs int) {
	*p = Parser{lex: newLexer(src), lexErrs: lexErrs}
	p.lex.scan(&p.tok)
}

// again reports whether the parse p just ran has to run once more, and
// if so starts p over for it. The parse's give-up check (tooMany) counted
// the lexical errors read so far; with this many errors the count over
// the whole source can give up sooner, so the second run counts that.
func (p *Parser) again() bool {
	p.drain()
	if p.lexErrs >= 0 || len(p.lex.errs)+len(p.errs) <= maxErrors {
		return false
	}
	p.init(p.lex.src, len(p.lex.errs))
	return true
}

// drain lexes what the parse left unread, for its lexical errors.
func (p *Parser) drain() {
	for p.tok.Kind != EOF {
		p.lex.scan(&p.tok)
	}
}

// diagnostics returns every lexical error of the whole source, in order,
// then the parse errors: as if the source had been lexed before parsing.
func (p *Parser) diagnostics() []error {
	p.drain()
	if len(p.errs) == 0 {
		return p.lex.errs
	}
	return append(p.lex.errs, p.errs...)
}

// tooMany reports whether a parse should give up: more than maxErrors
// lexical errors of the whole source and parse errors so far.
func (p *Parser) tooMany() bool {
	lexErrs := p.lexErrs
	if lexErrs < 0 {
		lexErrs = len(p.lex.errs)
	}
	return lexErrs+len(p.errs) > maxErrors
}

func (p *Parser) next() Token {
	t := p.tok
	if t.Kind != EOF {
		p.lex.scan(&p.tok)
		p.n++
	}
	return t
}

func (p *Parser) at(k TokenKind) bool { return p.tok.Kind == k }

func (p *Parser) accept(k TokenKind) bool {
	if p.tok.Kind == k {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expect(k TokenKind) Token {
	if p.tok.Kind != k {
		p.fail("expected %s, found %s", k, p.tok)
	}
	return p.next()
}

func (p *Parser) fail(format string, args ...any) {
	err := fmt.Errorf("%s: %s", p.tok.Pos, fmt.Sprintf(format, args...))
	panic(parseError{err})
}

// recoverItem converts a parseError panic into a recorded error and syncs
// the token stream to the next likely item boundary.
func (p *Parser) recoverItem() {
	if r := recover(); r != nil {
		p.record(r)
		p.sync()
	}
}

// record appends the error a parseError panic carries; any other panic
// goes on.
func (p *Parser) record(r any) {
	pe, ok := r.(parseError)
	if !ok {
		panic(r)
	}
	p.errs = append(p.errs, pe.err)
}

func (p *Parser) sync() {
	for {
		switch p.tok.Kind {
		case EOF, KwEndmodule, KwModule:
			return
		case Semi, KwEnd, KwEndcase:
			p.next()
			return
		}
		p.next()
	}
}

// giveUp records that a parse stopped at maxErrors.
func (p *Parser) giveUp() {
	p.errs = append(p.errs, errors.New("too many errors; giving up"))
}

// ParseSourceText parses a whole compilation unit.
func ParseSourceText(src string) (*SourceText, []error) {
	var p Parser
	p.init(src, -1)
	st := p.sourceText()
	if p.again() {
		st = p.sourceText()
	}
	return st, p.diagnostics()
}

func (p *Parser) sourceText() *SourceText {
	st := &SourceText{}
	for !p.at(EOF) {
		before := p.n
		m := p.parseModuleRecover()
		if m != nil {
			st.Modules = append(st.Modules, m)
		}
		if p.n == before {
			// Error recovery stopped on a boundary token without
			// consuming it; force progress.
			p.next()
		}
		if p.tooMany() {
			p.giveUp()
			break
		}
	}
	return st
}

// ParseItems parses a sequence of module items (REPL input that extends
// the root module).
func ParseItems(src string) ([]Item, []error) {
	var p Parser
	p.init(src, -1)
	items := p.items()
	if p.again() {
		items = p.items()
	}
	return items, p.diagnostics()
}

func (p *Parser) items() []Item {
	var items []Item
	for !p.at(EOF) {
		before := p.n
		it := p.parseItemRecover()
		if it != nil {
			items = append(items, it)
		}
		if p.n == before {
			p.next() // force progress past an unconsumed boundary token
		}
		if p.tooMany() {
			p.giveUp()
			break
		}
	}
	return items
}

// ParseProgramFragment parses REPL or batch input that freely mixes
// module declarations (added to the outer scope) with module items
// (appended to the implicit root module), the two forms Cascade's eval
// accepts (paper §3.1).
func ParseProgramFragment(src string) ([]*Module, []Item, []error) {
	var p Parser
	p.init(src, -1)
	mods, items := p.fragment()
	if p.again() {
		mods, items = p.fragment()
	}
	return mods, items, p.diagnostics()
}

func (p *Parser) fragment() (mods []*Module, items []Item) {
	for !p.at(EOF) {
		before := p.n
		if p.at(KwModule) {
			if m := p.parseModuleRecover(); m != nil {
				mods = append(mods, m)
			}
		} else if it := p.parseItemRecover(); it != nil {
			items = append(items, it)
		}
		if p.n == before {
			p.next() // force progress past an unconsumed boundary token
		}
		if p.tooMany() {
			p.giveUp()
			break
		}
	}
	return mods, items
}

func (p *Parser) parseModuleRecover() *Module {
	defer p.recoverItem()
	if !p.at(KwModule) {
		p.fail("expected module, found %s", p.tok)
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
		before := p.n
		it := p.parseItemRecover()
		if it != nil {
			m.Items = append(m.Items, it)
		}
		if p.n == before {
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
	r := p.ranges.new()
	*r = Range{Hi: hi, Lo: lo}
	return r
}

// parseItem parses one module item.
func (p *Parser) parseItem() Item {
	switch p.tok.Kind {
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
	p.fail("expected module item, found %s", p.tok)
	return nil
}

func (p *Parser) parseNetDecl() *NetDecl {
	tok := p.next()
	b := p.decls.new()
	d := &b.d
	d.DeclPos = tok.Pos
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
	d.Names = b.names[:0:1]
	for {
		n := p.expect(IDENT)
		dn := &b.name
		if len(d.Names) > 0 {
			dn = &DeclName{}
		}
		dn.NamePos, dn.Name = n.Pos, n.Text
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
	a := p.assigns.new()
	*a = ContAssign{AssignPos: tok.Pos, LHS: lhs, RHS: rhs}
	return a
}

func (p *Parser) parseAlways() *AlwaysBlock {
	tok := p.expect(KwAlways)
	b := p.always.new()
	a := &b.a
	a.AlwaysPos = tok.Pos
	p.expect(At)
	if p.accept(StarOp) {
		a.Star = true
	} else {
		p.expect(LParen)
		if p.accept(StarOp) {
			a.Star = true
		} else {
			a.Events = b.events[:0:1]
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
			c := &PortConn{ConnPos: p.tok.Pos}
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
	switch p.tok.Kind {
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
	p.fail("expected statement, found %s", p.tok)
	return nil
}

func (p *Parser) parseCase() *Case {
	tok := p.next()
	c := &Case{CasePos: tok.Pos, IsCasez: tok.Kind == KwCasez}
	p.expect(LParen)
	c.Subject = p.parseExpr()
	p.expect(RParen)
	for !p.at(KwEndcase) && !p.at(EOF) {
		it := &CaseItem{ItemPos: p.tok.Pos}
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
	switch p.tok.Kind {
	case Eq:
		blocking = true
	case LtEq:
		blocking = false
	default:
		p.fail("expected = or <= after lvalue, found %s", p.tok)
	}
	tok := p.next()
	rhs := p.parseExpr()
	p.expect(Semi)
	a := p.procs.new()
	*a = ProcAssign{AssignPos: tok.Pos, Blocking: blocking, LHS: lhs, RHS: rhs}
	return a
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
	id := p.idents.new()
	*id = Ident{IdentPos: n.Pos, Name: n.Text}
	return id
}

// numTokenKinds bounds the tables indexed by TokenKind.
const numTokenKinds = int(AShr) + 1

// Operator precedence, lowest first; 0 for a token that is no binary
// operator. Level 0 is the ternary conditional, handled separately in
// parseExpr.
var binPrec = [numTokenKinds]int8{
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

var binOps = [numTokenKinds]BinaryOp{
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
		prec := int(binPrec[p.tok.Kind])
		if prec == 0 || prec < minPrec {
			return lhs
		}
		tok := p.next()
		// Power is right-associative; everything else left-associative.
		nextMin := prec + 1
		if tok.Kind == PowerOp {
			nextMin = prec
		}
		rhs := p.parseBinary(nextMin)
		b := p.binaries.new()
		*b = Binary{OpPos: tok.Pos, Op: binOps[tok.Kind], X: lhs, Y: rhs}
		lhs = b
	}
}

// unaryOps maps a token to the unary operator it spells, or 0.
var unaryOps = [numTokenKinds]UnaryOp{
	Bang: UNot, Tilde: UBitNot, MinusOp: UNeg, PlusOp: UPlus,
	Amp: URedAnd, Pipe: URedOr, Caret: URedXor,
	TildeAmp: URedNand, TildePipe: URedNor, TildeXor: URedXnor,
}

func (p *Parser) parseUnary() Expr {
	if op := unaryOps[p.tok.Kind]; op != 0 {
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
	switch p.tok.Kind {
	case NUMBER:
		return p.parseNumber(p.next())
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
	p.fail("expected expression, found %s", p.tok)
	return nil
}

// smallNumber is a Number whose value fits one word, allocated in one
// piece with its vector.
type smallNumber struct {
	n   Number
	val bits.Vector
	w   [1]uint64
}

// parseNumber builds tok's literal: a literal of at most 64 bits on its
// own word, any other through bits.ParseMaskedLiteral, to the same
// vector and mask.
func (p *Parser) parseNumber(tok Token) *Number {
	sized := strings.IndexByte(tok.Text, '\'') >= 0
	if width, v, ok := bits.SmallLiteral(tok.Text); ok {
		s := p.numbers.new()
		s.w[0] = v
		s.val = bits.Wrap(width, s.w[:])
		s.n = Number{NumPos: tok.Pos, Literal: tok.Text, Val: &s.val, Sized: sized}
		return &s.n
	}
	v, mask, err := bits.ParseMaskedLiteral(tok.Text)
	if err != nil {
		p.fail("%v", err)
	}
	return &Number{NumPos: tok.Pos, Literal: tok.Text, Val: v, Mask: mask, Sized: sized}
}
