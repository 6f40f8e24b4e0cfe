package verilog

import (
	"fmt"
	"strings"
)

// Lexer converts Verilog source text into a token stream, one token per
// scan. It handles // line comments, /* */ block comments, sized number
// literals (the size, tick, base, and digits are assembled into a single
// NUMBER token), string literals with the escapes $display supports, and
// all operators in the supported subset. Every token's text other than an
// escaped string's is a substring of the source.
type Lexer struct {
	src       string
	off       int
	line      int
	lineStart int // offset of the current line's first byte
	errs      []error
}

func newLexer(src string) Lexer { return Lexer{src: src, line: 1} }

// Errors returns lexical errors encountered so far.
func (l *Lexer) Errors() []error { return l.errs }

func (l *Lexer) errorf(pos Pos, format string, args ...any) {
	l.errs = append(l.errs, fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...)))
}

// pos is the position of the next byte; a column counts bytes.
func (l *Lexer) pos() Pos { return Pos{Line: l.line, Col: l.off - l.lineStart + 1} }

// newlines accounts for the newlines in src[from:l.off], which the lexer
// has just skipped over in one step.
func (l *Lexer) newlines(from int) {
	skipped := l.src[from:l.off]
	if n := strings.Count(skipped, "\n"); n > 0 {
		l.line += n
		l.lineStart = from + strings.LastIndexByte(skipped, '\n') + 1
	}
}

// Byte classes of the lexer's dispatch.
const (
	cOther  uint8 = iota // an operator, punctuation or an unexpected byte
	cIdent               // a letter or _: starts an identifier or keyword
	cNumber              // a digit or ': starts a number
	cDollar              // starts a system identifier
	cQuote               // starts a string
	cTick                // ` starts a compiler directive
)

var (
	byteClass [256]uint8
	identPart [256]bool // the bytes after an identifier's first
	baseDigit [256]bool // the digits of a based number, _ included
)

func init() {
	for c := 0; c < 256; c++ {
		letter := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		digit := c >= '0' && c <= '9'
		switch {
		case letter:
			byteClass[c] = cIdent
		case digit || c == '\'':
			byteClass[c] = cNumber
		}
		identPart[c] = letter || digit || c == '$'
		baseDigit[c] = digit || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F') || c == '_'
	}
	byteClass['$'] = cDollar
	byteClass['"'] = cQuote
	byteClass['`'] = cTick
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// skipSpaceAndComments consumes whitespace and comments; it reports an
// unterminated block comment as an error.
func (l *Lexer) skipSpaceAndComments() {
	src, off := l.src, l.off
	for off < len(src) {
		switch src[off] {
		case ' ', '\t', '\r':
			off++
			continue
		case '\n':
			off++
			l.line++
			l.lineStart = off
			continue
		case '/':
			if off+1 < len(src) && src[off+1] == '/' {
				if n := strings.IndexByte(src[off:], '\n'); n >= 0 {
					off += n
				} else {
					off = len(src)
				}
				continue
			}
			if off+1 < len(src) && src[off+1] == '*' {
				l.off = off
				start := l.pos()
				if n := strings.Index(src[off+2:], "*/"); n >= 0 {
					l.off += 2 + n + 2
				} else {
					l.off = len(src)
					l.errorf(start, "unterminated block comment")
				}
				l.newlines(off)
				off = l.off
				continue
			}
		}
		break
	}
	l.off = off
}

// scan sets *t to the next token; at end of input, EOF forever.
func (l *Lexer) scan(t *Token) {
	for {
		l.skipSpaceAndComments()
		t.Pos = l.pos()
		if l.off >= len(l.src) {
			t.Kind, t.Text = EOF, ""
			return
		}
		switch byteClass[l.src[l.off]] {
		case cIdent:
			l.lexIdent(t)
			return
		case cDollar:
			l.lexSysIdent(t)
			return
		case cNumber:
			l.lexNumber(t)
			return
		case cQuote:
			l.lexString(t)
			return
		case cTick:
			// Compiler directives are not supported; skip the directive
			// line and return the following token so batch files with
			// `timescale don't wedge the lexer.
			if n := strings.IndexByte(l.src[l.off:], '\n'); n >= 0 {
				l.off += n
			} else {
				l.off = len(l.src)
			}
			l.errorf(t.Pos, "compiler directives are not supported (skipped)")
			continue
		}
		l.lexOperator(t)
		return
	}
}

// identEnd returns the end of the identifier characters from off.
func (l *Lexer) identEnd(off int) int {
	for off < len(l.src) && identPart[l.src[off]] {
		off++
	}
	return off
}

func (l *Lexer) lexIdent(t *Token) {
	start := l.off
	l.off = l.identEnd(start + 1)
	t.Text = l.src[start:l.off]
	t.Kind = keyword(t.Text)
}

// keyword returns the keyword text spells, or IDENT.
func keyword(text string) TokenKind {
	if len(text) < 2 || len(text) > 10 {
		return IDENT
	}
	switch text {
	case "module":
		return KwModule
	case "endmodule":
		return KwEndmodule
	case "input":
		return KwInput
	case "output":
		return KwOutput
	case "inout":
		return KwInout
	case "wire":
		return KwWire
	case "reg":
		return KwReg
	case "integer":
		return KwInteger
	case "parameter":
		return KwParameter
	case "localparam":
		return KwLocalparam
	case "assign":
		return KwAssign
	case "always":
		return KwAlways
	case "initial":
		return KwInitial
	case "begin":
		return KwBegin
	case "end":
		return KwEnd
	case "if":
		return KwIf
	case "else":
		return KwElse
	case "case":
		return KwCase
	case "casez":
		return KwCasez
	case "endcase":
		return KwEndcase
	case "default":
		return KwDefault
	case "for":
		return KwFor
	case "posedge":
		return KwPosedge
	case "negedge":
		return KwNegedge
	case "or":
		return KwOr
	}
	return IDENT
}

func (l *Lexer) lexSysIdent(t *Token) {
	start := l.off
	l.off = l.identEnd(start + 1) // past '$'
	t.Kind, t.Text = SYSIDENT, l.src[start:l.off]
	if len(t.Text) == 1 {
		l.errorf(t.Pos, "stray '$'")
		t.Kind = ILLEGAL
	}
}

// lexNumber assembles [size] ' base digits, or a plain decimal, into one
// NUMBER token whose text is parseable by bits.ParseLiteral.
func (l *Lexer) lexNumber(t *Token) {
	src := l.src
	start := l.off
	for l.off < len(src) && (isDigit(src[l.off]) || src[l.off] == '_') {
		l.off++
	}
	if l.off < len(src) && src[l.off] == '\'' {
		l.off++ // tick
		var b byte
		if l.off < len(src) {
			b = src[l.off]
		}
		switch b {
		case 'h', 'H', 'd', 'D', 'o', 'O', 'b', 'B':
			binary := b == 'b' || b == 'B'
			l.off++
			digStart := l.off
			for l.off < len(src) && (baseDigit[src[l.off]] || (binary && src[l.off] == '?')) {
				l.off++
			}
			if l.off == digStart {
				l.errorf(t.Pos, "number literal missing digits")
				t.Kind, t.Text = ILLEGAL, src[start:l.off]
				return
			}
		default:
			l.errorf(t.Pos, "invalid number base %q", string(b))
			t.Kind, t.Text = ILLEGAL, src[start:l.off]
			return
		}
	}
	t.Kind, t.Text = NUMBER, src[start:l.off]
}

// lexString lexes a string literal. Its text is the contents: a
// substring of the source unless an escape has to be decoded.
func (l *Lexer) lexString(t *Token) {
	start := l.off + 1 // past the opening quote
	for i := start; i < len(l.src); i++ {
		switch l.src[i] {
		case '"':
			l.off = i + 1
			t.Kind, t.Text = STRING, l.src[start:i]
			return
		case '\n':
			l.off = i + 1
			l.line++
			l.lineStart = l.off
			l.errorf(t.Pos, "unterminated string literal")
			t.Kind, t.Text = ILLEGAL, l.src[start:i]
			return
		case '\\':
			l.off = i
			t.Kind, t.Text = l.lexEscapedString(t.Pos, start)
			return
		}
	}
	l.off = len(l.src)
	l.errorf(t.Pos, "unterminated string literal")
	t.Kind, t.Text = ILLEGAL, l.src[start:]
}

// lexEscapedString finishes the string literal begun at start, decoding
// escapes from the backslash at l.off on: STRING and its contents, or
// ILLEGAL and what it read.
func (l *Lexer) lexEscapedString(pos Pos, start int) (TokenKind, string) {
	var sb strings.Builder
	sb.WriteString(l.src[start:l.off])
	for l.off < len(l.src) {
		c := l.src[l.off]
		l.off++
		switch c {
		case '"':
			return STRING, sb.String()
		case '\\':
			if l.off >= len(l.src) {
				break
			}
			e := l.src[l.off]
			l.off++
			switch e {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case '\n':
				l.line++
				l.lineStart = l.off
				sb.WriteByte(e)
			default: // \\, \" and any other byte stand for themselves
				sb.WriteByte(e)
			}
		case '\n':
			l.line++
			l.lineStart = l.off
			l.errorf(pos, "unterminated string literal")
			return ILLEGAL, sb.String()
		default:
			sb.WriteByte(c)
		}
	}
	l.errorf(pos, "unterminated string literal")
	return ILLEGAL, sb.String()
}

// singleOps are the operators and punctuation no longer operator begins
// with.
var singleOps = [256]TokenKind{
	'(': LParen, ')': RParen, '[': LBrack, ']': RBrack, '{': LBrace, '}': RBrace,
	';': Semi, ':': Colon, ',': Comma, '.': Dot, '@': At, '#': Hash, '?': Question,
	'+': PlusOp, '-': MinusOp, '/': SlashOp, '%': PercentOp,
}

func (l *Lexer) lexOperator(t *Token) {
	src, off := l.src, l.off
	c := src[off]
	var c1, c2 byte
	if off+1 < len(src) {
		c1 = src[off+1]
	}
	if off+2 < len(src) {
		c2 = src[off+2]
	}
	kind, n := singleOps[c], 1
	switch c {
	case '*':
		kind = StarOp
		if c1 == '*' {
			kind, n = PowerOp, 2
		}
	case '=', '!':
		kind = Eq
		if c == '!' {
			kind = Bang
		}
		if c1 == '=' && c2 == '=' {
			kind, n = CaseEq, 3
			if c == '!' {
				kind = CaseNotEq
			}
		} else if c1 == '=' {
			kind, n = EqEq, 2
			if c == '!' {
				kind = NotEq
			}
		}
	case '<':
		switch {
		case c1 == '<' && c2 == '<':
			kind, n = AShl, 3
		case c1 == '<':
			kind, n = Shl, 2
		case c1 == '=':
			kind, n = LtEq, 2
		default:
			kind = Lt
		}
	case '>':
		switch {
		case c1 == '>' && c2 == '>':
			kind, n = AShr, 3
		case c1 == '>':
			kind, n = Shr, 2
		case c1 == '=':
			kind, n = GtEq, 2
		default:
			kind = Gt
		}
	case '&':
		kind = Amp
		if c1 == '&' {
			kind, n = AndAnd, 2
		}
	case '|':
		kind = Pipe
		if c1 == '|' {
			kind, n = OrOr, 2
		}
	case '^':
		kind = Caret
		if c1 == '~' {
			kind, n = TildeXor, 2
		}
	case '~':
		switch c1 {
		case '&':
			kind, n = TildeAmp, 2
		case '|':
			kind, n = TildePipe, 2
		case '^':
			kind, n = TildeXor, 2
		default:
			kind = Tilde
		}
	}
	t.Kind, t.Text = kind, src[off:off+n]
	l.off += n
	if kind == EOF {
		// The byte itself, quoted: string(c) would read it as a rune, so
		// a byte of a multi-byte character would print as some other
		// character.
		l.errorf(t.Pos, "unexpected character %q", t.Text)
		t.Kind = ILLEGAL
	}
}

// LexAll tokenizes src completely, returning the tokens (ending with EOF)
// and any lexical errors: the one exported way to lex. The parser scans
// its own lexer token by token instead; LexAll serves callers that scan
// a whole input, such as the REPL's completeness check.
func LexAll(src string) ([]Token, []error) {
	l := newLexer(src)
	// Sized from the source, so the slice rarely grows: REPL input runs
	// about 2.7 bytes a token, indented printed modules about 4.6, and
	// this is room for one every 2.5.
	toks := make([]Token, 0, len(src)*2/5+1)
	for {
		toks = append(toks, Token{})
		t := &toks[len(toks)-1]
		l.scan(t)
		if t.Kind == EOF {
			break
		}
	}
	return toks, l.Errors()
}
