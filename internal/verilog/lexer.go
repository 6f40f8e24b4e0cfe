package verilog

import (
	"fmt"
	"strings"
)

// Lexer converts Verilog source text into a token stream. It handles //
// line comments, /* */ block comments, sized number literals (the size,
// tick, base, and digits are assembled into a single NUMBER token), string
// literals with the escapes $display supports, and all operators in the
// supported subset.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
	errs []error
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Errors returns lexical errors encountered so far.
func (l *Lexer) Errors() []error { return l.errs }

func (l *Lexer) errorf(pos Pos, format string, args ...any) {
	l.errs = append(l.errs, fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...)))
}

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peekAt(n int) byte {
	if l.off+n >= len(l.src) {
		return 0
	}
	return l.src[l.off+n]
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) pos() Pos { return Pos{Line: l.line, Col: l.col} }

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9') || c == '$'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isBaseDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F') || c == '_'
}

// skipSpaceAndComments consumes whitespace and comments; it reports an
// unterminated block comment as an error.
func (l *Lexer) skipSpaceAndComments() {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case isSpace(c):
			l.advance()
		case c == '/' && l.peekAt(1) == '/':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peekAt(1) == '*':
			start := l.pos()
			l.advance()
			l.advance()
			closed := false
			for l.off < len(l.src) {
				if l.peek() == '*' && l.peekAt(1) == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				l.errorf(start, "unterminated block comment")
			}
		default:
			return
		}
	}
}

// Next returns the next token in the stream. At end of input it returns
// EOF forever.
func (l *Lexer) Next() Token {
	l.skipSpaceAndComments()
	pos := l.pos()
	if l.off >= len(l.src) {
		return Token{Kind: EOF, Pos: pos}
	}
	c := l.peek()

	switch {
	case isIdentStart(c):
		return l.lexIdent(pos)
	case c == '$':
		return l.lexSysIdent(pos)
	case isDigit(c) || c == '\'':
		return l.lexNumber(pos)
	case c == '"':
		return l.lexString(pos)
	case c == '`':
		// Compiler directives are not supported; skip the directive name
		// and return the following token so batch files with `timescale
		// don't wedge the lexer.
		l.advance()
		for l.off < len(l.src) && l.peek() != '\n' {
			l.advance()
		}
		l.errorf(pos, "compiler directives are not supported (skipped)")
		return l.Next()
	}
	return l.lexOperator(pos)
}

func (l *Lexer) lexIdent(pos Pos) Token {
	start := l.off
	for l.off < len(l.src) && isIdentPart(l.peek()) {
		l.advance()
	}
	text := l.src[start:l.off]
	if kw, ok := keywords[text]; ok {
		return Token{Kind: kw, Text: text, Pos: pos}
	}
	return Token{Kind: IDENT, Text: text, Pos: pos}
}

func (l *Lexer) lexSysIdent(pos Pos) Token {
	start := l.off
	l.advance() // '$'
	for l.off < len(l.src) && isIdentPart(l.peek()) {
		l.advance()
	}
	text := l.src[start:l.off]
	if text == "$" {
		l.errorf(pos, "stray '$'")
		return Token{Kind: ILLEGAL, Text: text, Pos: pos}
	}
	return Token{Kind: SYSIDENT, Text: text, Pos: pos}
}

// lexNumber assembles [size] ' base digits, or a plain decimal, into one
// NUMBER token whose text is parseable by bits.ParseLiteral.
func (l *Lexer) lexNumber(pos Pos) Token {
	start := l.off
	for l.off < len(l.src) && (isDigit(l.peek()) || l.peek() == '_') {
		l.advance()
	}
	if l.peek() == '\'' {
		l.advance() // tick
		b := l.peek()
		if b == 'h' || b == 'H' || b == 'd' || b == 'D' || b == 'o' || b == 'O' || b == 'b' || b == 'B' {
			binary := b == 'b' || b == 'B'
			l.advance()
			digStart := l.off
			for l.off < len(l.src) && (isBaseDigit(l.peek()) || (binary && l.peek() == '?')) {
				l.advance()
			}
			if l.off == digStart {
				l.errorf(pos, "number literal missing digits")
				return Token{Kind: ILLEGAL, Text: l.src[start:l.off], Pos: pos}
			}
		} else {
			l.errorf(pos, "invalid number base %q", string(b))
			return Token{Kind: ILLEGAL, Text: l.src[start:l.off], Pos: pos}
		}
	}
	return Token{Kind: NUMBER, Text: strings.TrimSpace(l.src[start:l.off]), Pos: pos}
}

func (l *Lexer) lexString(pos Pos) Token {
	l.advance() // opening quote
	var sb strings.Builder
	for l.off < len(l.src) {
		c := l.advance()
		switch c {
		case '"':
			return Token{Kind: STRING, Text: sb.String(), Pos: pos}
		case '\\':
			if l.off >= len(l.src) {
				break
			}
			e := l.advance()
			switch e {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case '\\':
				sb.WriteByte('\\')
			case '"':
				sb.WriteByte('"')
			default:
				sb.WriteByte(e)
			}
		case '\n':
			l.errorf(pos, "unterminated string literal")
			return Token{Kind: ILLEGAL, Text: sb.String(), Pos: pos}
		default:
			sb.WriteByte(c)
		}
	}
	l.errorf(pos, "unterminated string literal")
	return Token{Kind: ILLEGAL, Text: sb.String(), Pos: pos}
}

func (l *Lexer) lexOperator(pos Pos) Token {
	two := func(kind TokenKind, text string) Token {
		l.advance()
		l.advance()
		return Token{Kind: kind, Text: text, Pos: pos}
	}
	three := func(kind TokenKind, text string) Token {
		l.advance()
		l.advance()
		l.advance()
		return Token{Kind: kind, Text: text, Pos: pos}
	}
	one := func(kind TokenKind) Token {
		c := l.advance()
		return Token{Kind: kind, Text: string(c), Pos: pos}
	}

	c, c1, c2 := l.peek(), l.peekAt(1), l.peekAt(2)
	switch c {
	case '(':
		return one(LParen)
	case ')':
		return one(RParen)
	case '[':
		return one(LBrack)
	case ']':
		return one(RBrack)
	case '{':
		return one(LBrace)
	case '}':
		return one(RBrace)
	case ';':
		return one(Semi)
	case ':':
		return one(Colon)
	case ',':
		return one(Comma)
	case '.':
		return one(Dot)
	case '@':
		return one(At)
	case '#':
		return one(Hash)
	case '?':
		return one(Question)
	case '+':
		return one(PlusOp)
	case '-':
		return one(MinusOp)
	case '/':
		return one(SlashOp)
	case '%':
		return one(PercentOp)
	case '*':
		if c1 == '*' {
			return two(PowerOp, "**")
		}
		return one(StarOp)
	case '=':
		if c1 == '=' && c2 == '=' {
			return three(CaseEq, "===")
		}
		if c1 == '=' {
			return two(EqEq, "==")
		}
		return one(Eq)
	case '!':
		if c1 == '=' && c2 == '=' {
			return three(CaseNotEq, "!==")
		}
		if c1 == '=' {
			return two(NotEq, "!=")
		}
		return one(Bang)
	case '<':
		if c1 == '<' && c2 == '<' {
			return three(AShl, "<<<")
		}
		if c1 == '<' {
			return two(Shl, "<<")
		}
		if c1 == '=' {
			return two(LtEq, "<=")
		}
		return one(Lt)
	case '>':
		if c1 == '>' && c2 == '>' {
			return three(AShr, ">>>")
		}
		if c1 == '>' {
			return two(Shr, ">>")
		}
		if c1 == '=' {
			return two(GtEq, ">=")
		}
		return one(Gt)
	case '&':
		if c1 == '&' {
			return two(AndAnd, "&&")
		}
		return one(Amp)
	case '|':
		if c1 == '|' {
			return two(OrOr, "||")
		}
		return one(Pipe)
	case '^':
		if c1 == '~' {
			return two(TildeXor, "^~")
		}
		return one(Caret)
	case '~':
		if c1 == '&' {
			return two(TildeAmp, "~&")
		}
		if c1 == '|' {
			return two(TildePipe, "~|")
		}
		if c1 == '^' {
			return two(TildeXor, "~^")
		}
		return one(Tilde)
	}
	l.errorf(pos, "unexpected character %q", string(c))
	l.advance()
	return Token{Kind: ILLEGAL, Text: string(c), Pos: pos}
}

// LexAll tokenizes src completely, returning the tokens (ending with EOF)
// and any lexical errors.
func LexAll(src string) ([]Token, []error) {
	l := NewLexer(src)
	// Sized from the source, so the slice rarely grows: REPL input runs
	// about 2.7 bytes a token, indented printed modules about 4.6, and
	// this is room for one every 2.5.
	toks := make([]Token, 0, len(src)*2/5+1)
	for {
		t := l.Next()
		toks = append(toks, t)
		if t.Kind == EOF {
			break
		}
	}
	return toks, l.Errors()
}
