// Package bits implements arbitrary-width two-state (0/1) bit vectors with
// the full set of Verilog operators needed by the Cascade simulator,
// synthesizer, and compiled netlist evaluator.
//
// Values are unsigned; all operators follow Verilog's unsigned semantics
// truncated to the result width. The four-state (x/z) extension of the IEEE
// standard is intentionally not modeled (see DESIGN.md). Division and
// modulus by zero yield zero where real Verilog would yield x.
//
// A Vector's unused high bits are always kept zero (the normalization
// invariant), so word-level comparisons and hashing are well defined.
//
// Every operator has one spelling, the destination form, z.SetAdd(x, y)
// in the style of math/big: it writes into z's existing words at z's
// width and reads its operands zero-extended or truncated to it; it
// allocates nothing, needs no operand resized to a context width, and z
// may alias an operand. elab.Eval computes with it over scratch its
// caller owns, the netlist reference machine into its slots' vectors.
// Five value-returning forms stay for elaboration's constant folding —
// Resize, Slice, And, Xor and RedAnd — each New at its natural width plus
// the destination form; the standard library never used any.
package bits

import (
	"math/big"
	mathbits "math/bits"
	"strconv"
	"strings"
)

// WordBits is the number of bits stored per machine word.
const WordBits = 64

// Vector is an unsigned bit vector of fixed width. The zero value is an
// unusable zero-width vector; use New or one of the From constructors.
type Vector struct {
	width int
	words []uint64
}

// WordsFor returns how many storage words a vector of the given width has.
func WordsFor(width int) int { return (width + WordBits - 1) / WordBits }

// New returns a zero-valued vector of the given width. Widths below 1 are
// clamped to 1 so callers never construct degenerate vectors.
func New(width int) *Vector {
	if width < 1 {
		width = 1
	}
	return &Vector{width: width, words: make([]uint64, WordsFor(width))}
}

// FromUint64 returns a vector of the given width holding v truncated to
// that width.
func FromUint64(width int, v uint64) *Vector {
	b := New(width)
	b.SetUint64(v)
	return b
}

// Wrap returns a vector of the given width over WordsFor(width) words the
// caller owns and has normalized: how an arena lends scratch vectors.
func Wrap(width int, words []uint64) Vector { return Vector{width: width, words: words} }

// FromBig returns a vector of the given width holding |v| truncated to that
// width. Negative values are interpreted as their two's complement at the
// target width, matching Verilog's treatment of negative decimal literals.
func FromBig(width int, v *big.Int) *Vector { return New(width).setBig(v) }

// setBig sets z to v modulo 2^width (Euclidean, so never negative).
func (z *Vector) setBig(v *big.Int) *Vector {
	x := new(big.Int).Set(v)
	if x.Sign() < 0 {
		x.Mod(x, new(big.Int).Lsh(big.NewInt(1), uint(z.width)))
	}
	for i := range z.words {
		z.words[i] = x.Uint64()
		x.Rsh(x, WordBits)
	}
	return z.normalize()
}

// Width reports the vector's width in bits.
func (b *Vector) Width() int { return b.width }

// Words exposes the underlying word storage (least significant first).
// Callers must not mutate the returned slice.
func (b *Vector) Words() []uint64 { return b.words }

// topMask returns the bits of the top storage word that lie in the width.
func (b *Vector) topMask() uint64 {
	return ^uint64(0) >> (WordBits - 1 - uint(b.width-1)%WordBits)
}

// normalize zeroes the unused high bits of the top word and returns b.
func (b *Vector) normalize() *Vector {
	b.words[len(b.words)-1] &= b.topMask()
	return b
}

// Clone returns an independent copy of b.
func (b *Vector) Clone() *Vector {
	c := &Vector{width: b.width, words: make([]uint64, len(b.words))}
	copy(c.words, b.words)
	return c
}

// CopyFrom overwrites b in place with v truncated or zero-extended to b's
// width. It never allocates and reports whether b's value changed.
//
// The source is read at its *semantic* width: bits of v's top storage word
// above v.Width() are masked off rather than trusted to be zero, so a
// source that violates the normalization invariant (e.g. a snapshot vector
// produced by a different engine tier) cannot leak junk into a wider
// destination.
func (b *Vector) CopyFrom(v *Vector) bool {
	changed := false
	for i := range b.words {
		w := v.word(i)
		if i == len(v.words)-1 {
			w &= v.topMask()
		}
		if i == len(b.words)-1 {
			w &= b.topMask()
		}
		if b.words[i] != w {
			changed = true
			b.words[i] = w
		}
	}
	return changed
}

// SetUint64 overwrites b in place with v truncated to b's width and reports
// whether the value changed. It never allocates.
func (b *Vector) SetUint64(v uint64) bool {
	if b.width < WordBits {
		v &= (uint64(1) << b.width) - 1
	}
	changed := b.words[0] != v
	b.words[0] = v
	for i := 1; i < len(b.words); i++ {
		if b.words[i] != 0 {
			changed = true
			b.words[i] = 0
		}
	}
	return changed
}

// Resize returns a copy of b truncated or zero-extended to width.
func (b *Vector) Resize(width int) *Vector { return New(width).Set(b) }

// Uint64 returns the low 64 bits of b.
func (b *Vector) Uint64() uint64 {
	if len(b.words) == 0 {
		return 0
	}
	return b.words[0]
}

// Big returns b as a big.Int.
func (b *Vector) Big() *big.Int {
	x := new(big.Int)
	for i := len(b.words) - 1; i >= 0; i-- {
		x.Lsh(x, WordBits)
		x.Or(x, new(big.Int).SetUint64(b.words[i]))
	}
	return x
}

// IsZero reports whether every bit of b is zero.
func (b *Vector) IsZero() bool {
	for _, w := range b.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Bool reports whether b is nonzero (Verilog truthiness).
func (b *Vector) Bool() bool { return !b.IsZero() }

// Bit returns bit i of b (0 if i is out of range).
func (b *Vector) Bit(i int) uint {
	if i < 0 || i >= b.width {
		return 0
	}
	return uint(b.words[i/WordBits]>>(i%WordBits)) & 1
}

// SetBit sets bit i of b to v in place. Out-of-range indices are ignored.
func (b *Vector) SetBit(i int, v uint) {
	if i < 0 || i >= b.width {
		return
	}
	mask := uint64(1) << (i % WordBits)
	if v&1 != 0 {
		b.words[i/WordBits] |= mask
	} else {
		b.words[i/WordBits] &^= mask
	}
}

// word returns storage word i of b and zero outside it: how an operand
// narrower than the destination reads as zero-extended.
func (b *Vector) word(i int) uint64 {
	if uint(i) < uint(len(b.words)) {
		return b.words[i]
	}
	return 0
}

// Equal reports whether a and b hold the same value, ignoring width
// differences (both are compared as unbounded unsigned integers).
func (b *Vector) Equal(o *Vector) bool { return b.Cmp(o) == 0 }

// Cmp compares a and b as unsigned integers: -1 if b<o, 0 if equal, 1 if b>o.
func (b *Vector) Cmp(o *Vector) int {
	for i := max(len(b.words), len(o.words)) - 1; i >= 0; i-- {
		if x, y := b.word(i), o.word(i); x < y {
			return -1
		} else if x > y {
			return 1
		}
	}
	return 0
}

// Index reads b as a position below limit, or -1 when it is out of range
// at any operand width: no index, 2^63 and above included, goes through int.
func (b *Vector) Index(limit int) int {
	for _, w := range b.words[1:] {
		if w != 0 {
			return -1
		}
	}
	if b.words[0] >= uint64(limit) {
		return -1
	}
	return int(b.words[0])
}

// Destination forms (see the package comment). Each returns z, and only
// multi-word Mul, Div, Mod and Pow allocate: they go through math/big.

// Set sets z to x truncated or zero-extended to z's width.
func (z *Vector) Set(x *Vector) *Vector {
	z.CopyFrom(x)
	return z
}

// SetBool sets z to 1 if v is true and to 0 otherwise.
func (z *Vector) SetBool(v bool) *Vector {
	z.SetUint64(0)
	if v {
		z.words[0] = 1
	}
	return z
}

// SetAdd sets z to x+y (carry out is truncated).
func (z *Vector) SetAdd(x, y *Vector) *Vector {
	var carry uint64
	for i := range z.words {
		z.words[i], carry = mathbits.Add64(x.word(i), y.word(i), carry)
	}
	return z.normalize()
}

// SetSub sets z to x-y (two's complement).
func (z *Vector) SetSub(x, y *Vector) *Vector {
	var borrow uint64
	for i := range z.words {
		z.words[i], borrow = mathbits.Sub64(x.word(i), y.word(i), borrow)
	}
	return z.normalize()
}

// zero is the constant 0 operand; nothing writes it.
var zero = New(1)

// SetNeg sets z to the two's complement negation of x.
func (z *Vector) SetNeg(x *Vector) *Vector { return z.SetSub(zero, x) }

// SetMul sets z to x*y: on uint64 when z is a single word, through
// math/big otherwise.
func (z *Vector) SetMul(x, y *Vector) *Vector {
	if len(z.words) == 1 {
		z.words[0] = x.words[0] * y.words[0]
		return z.normalize()
	}
	return z.setBig(new(big.Int).Mul(x.Big(), y.Big()))
}

// divMod sets z to the quotient or the remainder of x by y, both read at
// z's width; a zero divisor yields zero where real Verilog would yield x.
func (z *Vector) divMod(x, y *Vector, rem bool) *Vector {
	if len(z.words) == 1 {
		a, b := x.words[0]&z.topMask(), y.words[0]&z.topMask()
		switch {
		case b == 0:
			z.words[0] = 0
		case rem:
			z.words[0] = a % b
		default:
			z.words[0] = a / b
		}
		return z
	}
	a, b := x.Resize(z.width).Big(), y.Resize(z.width).Big()
	if b.Sign() == 0 {
		return z.Set(zero)
	}
	q, r := new(big.Int).QuoRem(a, b, new(big.Int))
	if rem {
		return z.setBig(r)
	}
	return z.setBig(q)
}

// SetDiv sets z to x/y (unsigned).
func (z *Vector) SetDiv(x, y *Vector) *Vector { return z.divMod(x, y, false) }

// SetMod sets z to x%y (unsigned).
func (z *Vector) SetMod(x, y *Vector) *Vector { return z.divMod(x, y, true) }

// SetPow sets z to x**y (Verilog-2001 power operator), y read whole.
func (z *Vector) SetPow(x, y *Vector) *Vector {
	mod := new(big.Int).Lsh(big.NewInt(1), uint(z.width))
	return z.setBig(new(big.Int).Exp(x.Big(), y.Big(), mod))
}

// SetAnd sets z to the bitwise AND of x and y.
func (z *Vector) SetAnd(x, y *Vector) *Vector {
	for i := range z.words {
		z.words[i] = x.word(i) & y.word(i)
	}
	return z.normalize()
}

// SetOr sets z to the bitwise OR of x and y.
func (z *Vector) SetOr(x, y *Vector) *Vector {
	for i := range z.words {
		z.words[i] = x.word(i) | y.word(i)
	}
	return z.normalize()
}

// SetXor sets z to the bitwise XOR of x and y.
func (z *Vector) SetXor(x, y *Vector) *Vector {
	for i := range z.words {
		z.words[i] = x.word(i) ^ y.word(i)
	}
	return z.normalize()
}

// SetXnor sets z to the bitwise XNOR of x and y.
func (z *Vector) SetXnor(x, y *Vector) *Vector {
	for i := range z.words {
		z.words[i] = ^(x.word(i) ^ y.word(i))
	}
	return z.normalize()
}

// SetNot sets z to the bitwise complement of x.
func (z *Vector) SetNot(x *Vector) *Vector {
	for i := range z.words {
		z.words[i] = ^x.word(i)
	}
	return z.normalize()
}

// SetRedAnd sets z to the AND reduction of x.
func (z *Vector) SetRedAnd(x *Vector) *Vector {
	top := len(x.words) - 1
	all := x.words[top] == x.topMask()
	for _, w := range x.words[:top] {
		all = all && w == ^uint64(0)
	}
	return z.SetBool(all)
}

// SetRedOr sets z to the OR reduction of x.
func (z *Vector) SetRedOr(x *Vector) *Vector { return z.SetBool(!x.IsZero()) }

// SetRedXor sets z to the XOR reduction (parity) of x.
func (z *Vector) SetRedXor(x *Vector) *Vector {
	var parity uint64
	for _, w := range x.words {
		parity ^= w
	}
	return z.SetBool(mathbits.OnesCount64(parity)&1 != 0)
}

// shlWord returns word i of x<<n for n >= 0, x zero-extended.
func shlWord(x *Vector, i, n int) uint64 {
	i -= n / WordBits
	w := x.word(i) << (n % WordBits)
	if s := n % WordBits; s != 0 {
		w |= x.word(i-1) >> (WordBits - s)
	}
	return w
}

// SetShl sets z to x<<n. Any n outside [0, z's width), Index's -1
// included, shifts everything out.
func (z *Vector) SetShl(x *Vector, n int) *Vector {
	if n < 0 || n >= z.width {
		return z.Set(zero)
	}
	for i := len(z.words) - 1; i >= 0; i-- { // downwards, so z may be x
		z.words[i] = shlWord(x, i, n)
	}
	return z.normalize()
}

// SetShr sets z to x>>n (logical), x read at its own width: a z narrower
// than x receives a part select. A negative n shifts everything out.
func (z *Vector) SetShr(x *Vector, n int) *Vector {
	if n < 0 {
		return z.Set(zero)
	}
	ws, s := n/WordBits, n%WordBits
	for i := range z.words {
		z.words[i] = x.word(i+ws) >> s
		if s != 0 {
			z.words[i] |= x.word(i+ws+1) << (WordBits - s)
		}
	}
	return z.normalize()
}

// SetRepl fills z with copies of x, the lowest at bit 0.
func (z *Vector) SetRepl(x *Vector) *Vector {
	for lo := 0; lo < z.width; lo += x.width {
		z.SetSlice(lo+x.width-1, lo, x)
	}
	return z
}

// SetSlice overwrites bits [hi:lo] of b in place with v (truncated or
// zero-extended to the slice width) and reports whether b changed. v may
// be b.
func (b *Vector) SetSlice(hi, lo int, v *Vector) bool {
	if hi < lo || lo < 0 || lo >= b.width {
		return false
	}
	hi = min(hi, b.width-1)
	changed := false
	for i := hi / WordBits; i >= lo/WordBits; i-- { // downwards, so v may be b
		mask := ^uint64(0)
		if i == lo/WordBits {
			mask <<= lo % WordBits
		}
		if i == hi/WordBits {
			mask &= ^uint64(0) >> (WordBits - 1 - hi%WordBits)
		}
		if w := b.words[i]&^mask | shlWord(v, i, lo)&mask; w != b.words[i] {
			b.words[i], changed = w, true
		}
	}
	return changed
}

// And returns the bitwise AND at the max operand width.
func (b *Vector) And(o *Vector) *Vector { return New(max(b.width, o.width)).SetAnd(b, o) }

// Xor returns the bitwise XOR at the max operand width.
func (b *Vector) Xor(o *Vector) *Vector { return New(max(b.width, o.width)).SetXor(b, o) }

// RedAnd returns the 1-bit AND reduction of b.
func (b *Vector) RedAnd() *Vector { return New(1).SetRedAnd(b) }

// Slice returns bits [hi:lo] of b as a new vector of width hi-lo+1.
// Out-of-range bits read as zero; an inverted range yields a 1-bit zero.
func (b *Vector) Slice(hi, lo int) *Vector {
	if hi < lo {
		return New(1)
	}
	return New(hi-lo+1).SetShr(b, lo)
}

// ByteLen returns the number of bytes needed to hold b's width.
func (b *Vector) ByteLen() int { return (b.width + 7) / 8 }

// AppendBytesLE appends b's value to dst as ByteLen() little-endian
// bytes (the wire encoding of the engine protocol).
func (b *Vector) AppendBytesLE(dst []byte) []byte {
	n := b.ByteLen()
	for i := 0; i < n; i++ {
		dst = append(dst, byte(b.words[i/8]>>((i%8)*8)))
	}
	return dst
}

// SetBytesLE overwrites z with little-endian bytes at z's width (the
// inverse of AppendBytesLE) and returns z. Missing bytes read as zero,
// excess bytes and out-of-width bits are truncated, so any input yields
// a normalized vector.
func (z *Vector) SetBytesLE(data []byte) *Vector {
	clear(z.words)
	for i := 0; i < min(z.ByteLen(), len(data)); i++ {
		z.words[i/8] |= uint64(data[i]) << ((i % 8) * 8)
	}
	return z.normalize()
}

// Reuse returns a zero vector of the given width: v itself, reshaped,
// when its storage has the room (v may be nil), else a new one. A slot
// that holds a vector from one value to the next reuses it across widths
// this way, where CopyFrom needs the widths equal.
func Reuse(v *Vector, width int) *Vector {
	if width < 1 {
		width = 1
	}
	n := WordsFor(width)
	if v == nil || cap(v.words) < n {
		return New(width)
	}
	v.width, v.words = width, v.words[:n]
	clear(v.words)
	return v
}

// String formats b as width'hXX... (Verilog sized hexadecimal).
func (b *Vector) String() string { return string(b.AppendString(nil)) }

// AppendString appends b's String form to dst: what a caller formatting
// many vectors into one buffer uses instead of a string apiece.
func (b *Vector) AppendString(dst []byte) []byte {
	dst = strconv.AppendInt(dst, int64(b.width), 10)
	return b.appendHex(append(dst, '\'', 'h'))
}

// Hex returns the hexadecimal digits of b, without prefix, using the
// minimal digit count for the width.
func (b *Vector) Hex() string { return string(b.appendHex(nil)) }

func (b *Vector) appendHex(dst []byte) []byte {
	for i := (b.width+3)/4 - 1; i >= 0; i-- {
		nib := (b.words[i*4/WordBits] >> ((i * 4) % WordBits)) & 0xf
		dst = append(dst, "0123456789abcdef"[nib])
	}
	return dst
}

// Bin returns the binary digits of b, one character per bit.
func (b *Vector) Bin() string {
	var sb strings.Builder
	for i := b.width - 1; i >= 0; i-- {
		sb.WriteByte('0' + byte(b.Bit(i)))
	}
	return sb.String()
}

// Dec returns the decimal representation of b.
func (b *Vector) Dec() string { return b.Big().String() }

// Oct returns the octal digits of b.
func (b *Vector) Oct() string { return b.Big().Text(8) }
