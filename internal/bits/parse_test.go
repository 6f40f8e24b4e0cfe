package bits

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestParseLiteralMatchesBig: the uint64 path parses every literal it
// takes to what math/big does, and leaves every other one — too wide,
// malformed — to it, so values and error texts are the same either way.
func TestParseLiteralMatchesBig(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	pick := func(s ...string) string { return s[r.Intn(len(s))] }
	digits := func(alphabet string, n int) string {
		var sb strings.Builder
		for i := 0; i < n; i++ {
			if r.Intn(6) == 0 {
				sb.WriteByte('_')
			}
			sb.WriteByte(alphabet[r.Intn(len(alphabet))])
		}
		return sb.String()
	}
	alphabets := map[byte]string{'b': "01", 'o': "01234567", 'd': "0123456789", 'h': "0123456789abcdefABCDEF"}
	fast := 0
	for i := 0; i < 20000; i++ {
		var s string
		switch r.Intn(10) {
		case 0: // plain decimal, up to well past 64 bits
			s = digits(alphabets['d'], 1+r.Intn(30))
		case 1: // malformed
			s = pick("", "'", "8'", "8'h", "8'h_", "0'd1", "-1", "+7", "8'd-0", "8'x1", "8'b102", "4'hg", "8'h1?",
				"x'd1", "99999999999999999999'd1", "1_6'hffff", "'hFFFF_FFFF_FFFF_FFFF_F", "1e3", " 12")
		default: // sized or unsized, each base, in either case
			base := "bodh"[r.Intn(4)]
			width := pick("", "1", "8", "32", "63", "64", "65", "100", "129", "1_6", digits(alphabets['d'], 1+r.Intn(3)))
			letter := string(base)
			if r.Intn(2) == 0 {
				letter = strings.ToUpper(letter)
			}
			s = width + "'" + letter + digits(alphabets[base], 1+r.Intn(24))
		}
		want, wantErr := parseBig(s)
		got, gotErr := ParseLiteral(s)
		if (wantErr == nil) != (gotErr == nil) || wantErr != nil && wantErr.Error() != gotErr.Error() {
			t.Fatalf("%q: error %v, math/big says %v", s, gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		if got.Width() != want.Width() || !got.Equal(want) {
			t.Fatalf("%q: %d'h%s, math/big says %d'h%s", s, got.Width(), got.Hex(), want.Width(), want.Hex())
		}
		if _, ok := parseSmall(s); ok {
			fast++
		}
	}
	if fast < 10000 {
		t.Fatalf("only %d of 20000 literals took the uint64 path", fast)
	}
}

// TestSmallLiteral: SmallLiteral takes every well-formed literal of at
// most 64 bits and returns the width and the one word of ParseLiteral's
// vector, and refuses any other literal.
func TestSmallLiteral(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	in := []string{"", "'", "8'h", "0'd1", "-1", "8'b1?", "1'b1", "3'b1111", "8'hfff", "42", "'hF", "'o17",
		"64'hffff_ffff_ffff_ffff", "65'h1", "100'h1", "18446744073709551615", "18446744073709551616"}
	for i := 0; i < 2000; i++ {
		in = append(in, fmt.Sprintf("%d'h%x", 1+r.Intn(70), r.Uint64()), fmt.Sprint(r.Uint64()>>r.Intn(64)))
	}
	for _, s := range in {
		width, word, ok := SmallLiteral(s)
		v, err := ParseLiteral(s)
		if want := err == nil && v.Width() <= WordBits; ok != want {
			t.Fatalf("%q: SmallLiteral ok=%v, ParseLiteral %v", s, ok, err)
		}
		if ok && (width != v.Width() || len(v.Words()) != 1 || word != v.Words()[0]) {
			t.Fatalf("%q: SmallLiteral %d'%x, ParseLiteral %d'h%s", s, width, word, v.Width(), v.Hex())
		}
	}
}

// TestLiteralWidthBound: a literal declared wider than maxLiteralWidth
// is an error, not a vector of that many bits.
func TestLiteralWidthBound(t *testing.T) {
	for _, s := range []string{"18446744073700'h1", "1048577'h1", "1048577'b1?"} {
		if _, _, err := ParseMaskedLiteral(s); err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Errorf("%q: error %v, want one saying the width exceeds the bound", s, err)
		}
	}
	if v, err := ParseLiteral("1048576'h1"); err != nil || v.Width() != maxLiteralWidth {
		t.Errorf("a literal at the bound: %v", err)
	}
}
