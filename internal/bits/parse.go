package bits

import (
	"fmt"
	"math/big"
	mathbits "math/bits"
	"strings"
)

// DefaultLiteralWidth is the width assigned to unsized Verilog literals
// (the standard specifies "at least 32 bits").
const DefaultLiteralWidth = 32

// maxLiteralWidth bounds a literal's declared width, so a literal such as
// 18446744073700'h1 is an error rather than a vector of that many bits.
const maxLiteralWidth = 1 << 20

// ParseLiteral parses a Verilog number literal such as 8'h80, 4'b10_10,
// 'd15, or a plain decimal like 42. Unsized literals get
// DefaultLiteralWidth. Underscores are ignored. x and z digits are not
// supported (two-state model).
func ParseLiteral(s string) (*Vector, error) {
	if v, ok := parseSmall(s); ok {
		return v, nil
	}
	return parseBig(s)
}

// parseSmall parses, on uint64, a well-formed literal whose value fits 64
// bits: most literals. It reports false for any other, malformed ones
// included, which parseBig then parses to the same value or error as
// ever.
func parseSmall(s string) (*Vector, bool) {
	width, v, ok := literalUint64(s)
	if !ok {
		return nil, false
	}
	return FromUint64(width, v), true
}

// SmallLiteral reads a well-formed literal no wider than a word: most
// literals. It returns the width ParseLiteral gives the literal and the
// value truncated to it, the one word of ParseLiteral's vector, or false
// for any other literal, malformed ones included.
func SmallLiteral(s string) (width int, v uint64, ok bool) {
	width, v, ok = literalUint64(s)
	if !ok || width > WordBits {
		return 0, 0, false
	}
	if width < WordBits {
		v &= uint64(1)<<width - 1
	}
	return width, v, true
}

// literalUint64 reads a well-formed literal whose value fits 64 bits: its
// width and its value, not yet truncated to the width.
func literalUint64(s string) (width int, v uint64, ok bool) {
	width, digits, base := DefaultLiteralWidth, s, uint64(10)
	tick := strings.IndexByte(s, '\'')
	if tick >= 0 {
		if tick > 0 {
			w, ok := parseDigits(s[:tick], 10)
			if !ok || w < 1 || w > maxLiteralWidth {
				return 0, 0, false
			}
			width = int(w)
		}
		if tick+1 == len(s) {
			return 0, 0, false
		}
		switch s[tick+1] {
		case 'h', 'H':
			base = 16
		case 'd', 'D':
		case 'o', 'O':
			base = 8
		case 'b', 'B':
			base = 2
		default:
			return 0, 0, false
		}
		digits = s[tick+2:]
	}
	v, ok = parseDigits(digits, base)
	if !ok {
		return 0, 0, false
	}
	if tick < 0 { // a plain decimal: as wide as its value needs
		width = max(width, mathbits.Len64(v))
	}
	return width, v, true
}

// digitValue is each byte's value as a digit, 0xff for a byte that is none.
var digitValue = func() (t [256]uint8) {
	for c := range t {
		switch {
		case '0' <= c && c <= '9':
			t[c] = uint8(c - '0')
		case 'a' <= c && c <= 'f':
			t[c] = uint8(c-'a') + 10
		case 'A' <= c && c <= 'F':
			t[c] = uint8(c-'A') + 10
		default:
			t[c] = 0xff
		}
	}
	return t
}()

// parseDigits reads digits in base, skipping underscores: false if there
// is no digit, an invalid one, or more than 64 bits of value.
func parseDigits(s string, base uint64) (v uint64, ok bool) {
	for i := 0; i < len(s); i++ {
		if s[i] == '_' {
			continue
		}
		d := uint64(digitValue[s[i]])
		hi, lo := mathbits.Mul64(v, base)
		if d >= base || hi != 0 || lo+d < lo {
			return 0, false
		}
		v, ok = lo+d, true
	}
	return v, ok
}

// parseBig is ParseLiteral through math/big, for any literal.
func parseBig(s string) (*Vector, error) {
	s = strings.ReplaceAll(s, "_", "")
	tick := strings.IndexByte(s, '\'')
	if tick < 0 {
		v, ok := new(big.Int).SetString(s, 10)
		if !ok || v.Sign() < 0 {
			return nil, fmt.Errorf("bits: malformed literal %q", s)
		}
		width := DefaultLiteralWidth
		if v.BitLen() > width {
			width = v.BitLen()
		}
		return FromBig(width, v), nil
	}

	width := DefaultLiteralWidth
	sized := tick > 0
	if sized {
		w, ok := new(big.Int).SetString(s[:tick], 10)
		if !ok || !w.IsInt64() || w.Int64() < 1 {
			return nil, fmt.Errorf("bits: malformed literal width in %q", s)
		}
		if w.Int64() > maxLiteralWidth {
			return nil, fmt.Errorf("bits: literal width in %q exceeds %d", s, maxLiteralWidth)
		}
		width = int(w.Int64())
	}
	rest := s[tick+1:]
	if rest == "" {
		return nil, fmt.Errorf("bits: malformed literal %q", s)
	}
	base := 10
	switch rest[0] {
	case 'h', 'H':
		base = 16
	case 'd', 'D':
		base = 10
	case 'o', 'O':
		base = 8
	case 'b', 'B':
		base = 2
	default:
		return nil, fmt.Errorf("bits: unknown base %q in literal %q", rest[0], s)
	}
	digits := rest[1:]
	if digits == "" {
		return nil, fmt.Errorf("bits: literal %q has no digits", s)
	}
	v, ok := new(big.Int).SetString(digits, base)
	if !ok || v.Sign() < 0 {
		return nil, fmt.Errorf("bits: malformed digits in literal %q", s)
	}
	return FromBig(width, v), nil
}

// ParseMaskedLiteral parses a binary literal that may contain ? wildcard
// digits (casez labels): it returns the value (wildcards as 0) and a care
// mask with 1s at the specified bit positions. Literals without
// wildcards return a nil mask.
func ParseMaskedLiteral(s string) (val, mask *Vector, err error) {
	if !strings.ContainsRune(s, '?') {
		v, err := ParseLiteral(s)
		return v, nil, err
	}
	clean := strings.ReplaceAll(s, "_", "")
	tick := strings.IndexByte(clean, '\'')
	if tick < 0 || tick+1 >= len(clean) || (clean[tick+1] != 'b' && clean[tick+1] != 'B') {
		return nil, nil, fmt.Errorf("bits: wildcard digits are only supported in binary literals: %q", s)
	}
	width := DefaultLiteralWidth
	if tick > 0 {
		w, ok := new(big.Int).SetString(clean[:tick], 10)
		if !ok || !w.IsInt64() || w.Int64() < 1 {
			return nil, nil, fmt.Errorf("bits: malformed literal width in %q", s)
		}
		if w.Int64() > maxLiteralWidth {
			return nil, nil, fmt.Errorf("bits: literal width in %q exceeds %d", s, maxLiteralWidth)
		}
		width = int(w.Int64())
	}
	digits := clean[tick+2:]
	if digits == "" {
		return nil, nil, fmt.Errorf("bits: literal %q has no digits", s)
	}
	val = New(width)
	mask = New(width)
	for i := 0; i < len(digits); i++ {
		bit := len(digits) - 1 - i
		if bit >= width {
			continue
		}
		switch digits[i] {
		case '0':
			mask.SetBit(bit, 1)
		case '1':
			val.SetBit(bit, 1)
			mask.SetBit(bit, 1)
		case '?':
			// wildcard: value 0, mask 0
		default:
			return nil, nil, fmt.Errorf("bits: bad wildcard digit %q in %q", digits[i], s)
		}
	}
	// Bits above the written digits are specified zeros.
	for bit := len(digits); bit < width; bit++ {
		mask.SetBit(bit, 1)
	}
	return val, mask, nil
}

// MinWidthFor returns the minimum number of bits needed to represent v
// (at least 1).
func MinWidthFor(v uint64) int { return max(1, mathbits.Len64(v)) }
