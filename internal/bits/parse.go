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

// ParseLiteral parses a Verilog number literal such as 8'h80, 4'b10_10,
// 'd15, or a plain decimal like 42. Unsized literals get
// DefaultLiteralWidth. Underscores are ignored. x and z digits are not
// supported (two-state model).
func ParseLiteral(s string) (*Vector, error) {
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

// MustParseLiteral is ParseLiteral for compile-time-constant inputs; it
// panics on error.
func MustParseLiteral(s string) *Vector {
	v, err := ParseLiteral(s)
	if err != nil {
		panic(err)
	}
	return v
}

// MinWidthFor returns the minimum number of bits needed to represent v
// (at least 1).
func MinWidthFor(v uint64) int { return max(1, mathbits.Len64(v)) }
