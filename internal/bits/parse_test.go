package bits

import (
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
