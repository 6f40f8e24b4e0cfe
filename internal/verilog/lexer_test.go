package verilog

import (
	"strings"
	"testing"

	"cascade/internal/vgen"
)

// TestLexAllAllocs: lexing allocates the token slice and little else,
// however many tokens there are — an operator's text is static and any
// other token's is a substring of the source.
func TestLexAllAllocs(t *testing.T) {
	for _, n := range []int{10, 150} {
		src := vgen.InlinedChain(n)
		if _, errs := LexAll(src); errs != nil {
			t.Fatal(errs)
		}
		if got := testing.AllocsPerRun(10, func() { LexAll(src) }); got > 4 {
			t.Errorf("LexAll of %d bytes: %.0f allocations, want at most 4", len(src), got)
		}
	}
}

// An unexpected byte is reported as itself, quoted, even when it starts
// a multi-byte character.
func TestLexUnexpectedByteQuoted(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{"a \x7f b", `unexpected character "\x7f"`},
		{"a é b", `unexpected character "\xc3"`},
	} {
		toks, errs := LexAll(c.src)
		if len(errs) == 0 || !strings.Contains(errs[0].Error(), c.want) {
			t.Errorf("%q: errors %v, want one containing %s", c.src, errs, c.want)
		}
		if toks[1].Kind != ILLEGAL || toks[1].Text != c.src[2:3] {
			t.Errorf("%q: token %+v, want ILLEGAL %q", c.src, toks[1], c.src[2:3])
		}
	}
}
