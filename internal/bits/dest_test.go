package bits

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// Invariant 5 (bits ≡ math/big) for the destination forms: every SetOp,
// at destination widths on both sides of the word boundaries, with
// operands narrower and wider than the destination, and under every
// aliasing shape the interpreter can produce.

var destWidths = []int{1, 63, 64, 65, 128, 200}

func randAt(r *rand.Rand, width int) *Vector {
	v := New(width)
	for i := range v.words {
		v.words[i] = r.Uint64()
	}
	if r.Intn(8) == 0 {
		for i := range v.words {
			v.words[i] = ^uint64(0) // all ones: carries, full reductions
		}
	}
	return v.normalize()
}

func pick(r *rand.Rand) int { return destWidths[r.Intn(len(destWidths))] }

// trunc returns v mod 2^width: how a destination of that width reads it.
func trunc(v *big.Int, width int) *big.Int { return new(big.Int).And(v, refMask(width)) }

func fromBool(v bool) *big.Int {
	if v {
		return big.NewInt(1)
	}
	return new(big.Int)
}

// binaryForms pairs each two-operand destination form with its meaning
// over math/big. x and y arrive already read at the destination width w,
// except full, the second operand as stored.
var binaryForms = []struct {
	name string
	set  func(z, x, y *Vector) *Vector
	ref  func(x, y, full *big.Int, w int) *big.Int
}{
	{"SetAdd", (*Vector).SetAdd, func(x, y, _ *big.Int, w int) *big.Int { return new(big.Int).Add(x, y) }},
	{"SetSub", (*Vector).SetSub, func(x, y, _ *big.Int, w int) *big.Int { return new(big.Int).Sub(x, y) }},
	{"SetMul", (*Vector).SetMul, func(x, y, _ *big.Int, w int) *big.Int { return new(big.Int).Mul(x, y) }},
	{"SetDiv", (*Vector).SetDiv, func(x, y, _ *big.Int, w int) *big.Int {
		if y.Sign() == 0 {
			return new(big.Int)
		}
		return new(big.Int).Div(x, y)
	}},
	{"SetMod", (*Vector).SetMod, func(x, y, _ *big.Int, w int) *big.Int {
		if y.Sign() == 0 {
			return new(big.Int)
		}
		return new(big.Int).Mod(x, y)
	}},
	{"SetPow", (*Vector).SetPow, func(x, _, full *big.Int, w int) *big.Int {
		return new(big.Int).Exp(x, full, new(big.Int).Lsh(big.NewInt(1), uint(w)))
	}},
	{"SetAnd", (*Vector).SetAnd, func(x, y, _ *big.Int, w int) *big.Int { return new(big.Int).And(x, y) }},
	{"SetOr", (*Vector).SetOr, func(x, y, _ *big.Int, w int) *big.Int { return new(big.Int).Or(x, y) }},
	{"SetXor", (*Vector).SetXor, func(x, y, _ *big.Int, w int) *big.Int { return new(big.Int).Xor(x, y) }},
	{"SetXnor", (*Vector).SetXnor, func(x, y, _ *big.Int, w int) *big.Int {
		return new(big.Int).Xor(new(big.Int).Xor(x, y), refMask(w))
	}},
}

func TestQuickDestBinaryMatchesBig(t *testing.T) {
	for _, f := range binaryForms {
		prop := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			for shape := 0; shape < 5; shape++ {
				x, y, z := randAt(r, pick(r)), randAt(r, pick(r)), randAt(r, pick(r))
				switch shape {
				case 1:
					z = x
				case 2:
					z = y
				case 3:
					y = x
				case 4:
					y, z = x, x
				}
				w := z.Width()
				want := trunc(f.ref(trunc(x.Big(), w), trunc(y.Big(), w), y.Big(), w), w)
				if got := f.set(z, x, y); got != z || z.Big().Cmp(want) != 0 {
					t.Logf("%s shape %d width %d: got %s want %x", f.name, shape, w, z, want)
					return false
				}
			}
			return true
		}
		if err := quick.Check(prop, nil); err != nil {
			t.Error(err)
		}
	}
}

func parity(x *big.Int) bool {
	n := 0
	for i := 0; i < x.BitLen(); i++ {
		n += int(x.Bit(i))
	}
	return n%2 == 1
}

// unaryForms: x arrives as stored, with its width xw; w is z's width.
var unaryForms = []struct {
	name string
	set  func(z, x *Vector) *Vector
	ref  func(x *big.Int, xw, w int) *big.Int
}{
	{"Set", (*Vector).Set, func(x *big.Int, xw, w int) *big.Int { return x }},
	{"SetNot", (*Vector).SetNot, func(x *big.Int, xw, w int) *big.Int { return new(big.Int).Xor(trunc(x, w), refMask(w)) }},
	{"SetNeg", (*Vector).SetNeg, func(x *big.Int, xw, w int) *big.Int { return new(big.Int).Neg(x) }},
	{"SetRedAnd", (*Vector).SetRedAnd, func(x *big.Int, xw, w int) *big.Int { return fromBool(x.Cmp(refMask(xw)) == 0) }},
	{"SetRedOr", (*Vector).SetRedOr, func(x *big.Int, xw, w int) *big.Int { return fromBool(x.Sign() != 0) }},
	{"SetRedXor", (*Vector).SetRedXor, func(x *big.Int, xw, w int) *big.Int { return fromBool(parity(x)) }},
}

func TestQuickDestUnaryMatchesBig(t *testing.T) {
	for _, f := range unaryForms {
		prop := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			for shape := 0; shape < 2; shape++ {
				x, z := randAt(r, pick(r)), randAt(r, pick(r))
				if shape == 1 {
					z = x
				}
				w := z.Width()
				want := trunc(f.ref(x.Big(), x.Width(), w), w)
				if got := f.set(z, x); got != z || z.Big().Cmp(want) != 0 {
					t.Logf("%s shape %d width %d: got %s want %x", f.name, shape, w, z, want)
					return false
				}
			}
			return true
		}
		if err := quick.Check(prop, nil); err != nil {
			t.Error(err)
		}
	}
}

// Shifts take an int amount; anything Index would call out of range
// (negative, or for Shl at or past the width) shifts everything out. Shr
// reads x whole, which is what makes a narrower z a part select.
func TestQuickDestShiftMatchesBig(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for shape := 0; shape < 2; shape++ {
			x, z := randAt(r, pick(r)), randAt(r, pick(r))
			if shape == 1 {
				z = x
			}
			w := z.Width()
			amounts := []int{-1, 0, 1, 63, 64, 65, w - 1, w, w + 5, r.Intn(w + 1), x.Width()}
			n := amounts[r.Intn(len(amounts))]
			left := r.Intn(2) == 0
			want := new(big.Int)
			switch {
			case left && n >= 0 && n < w:
				want = trunc(new(big.Int).Lsh(x.Big(), uint(n)), w)
			case !left && n >= 0:
				want = trunc(new(big.Int).Rsh(x.Big(), uint(n)), w)
			}
			if left {
				z.SetShl(x, n)
			} else {
				z.SetShr(x, n)
			}
			if z.Big().Cmp(want) != 0 {
				t.Logf("left=%v shape %d width %d by %d: got %s want %x", left, shape, w, n, z, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// SetSlice by word masks against the bit-by-bit definition, v being b
// included (r[7:4] = r), and SetRepl against repeated concatenation.
func TestQuickSetSliceAndReplMatchBig(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for shape := 0; shape < 2; shape++ {
			b, v := randAt(r, pick(r)), randAt(r, pick(r))
			if shape == 1 {
				v = b
			}
			lo := r.Intn(b.Width() + 2)
			hi := lo - 1 + r.Intn(b.Width()+3)
			before, src := b.Big(), v.Big()
			want := new(big.Int).Set(before)
			for i := lo; i <= hi && i < b.Width(); i++ {
				want.SetBit(want, i, src.Bit(i-lo))
			}
			changed := b.SetSlice(hi, lo, v)
			if b.Big().Cmp(want) != 0 || changed != (want.Cmp(before) != 0) {
				t.Logf("SetSlice shape %d [%d:%d] of width %d: got %s (changed=%v) want %x", shape, hi, lo, b.Width(), b, changed, want)
				return false
			}
		}
		x := randAt(r, 1+r.Intn(70))
		z := randAt(r, x.Width()*(1+r.Intn(4)))
		want := new(big.Int)
		for lo := 0; lo < z.Width(); lo += x.Width() {
			want.Or(want, new(big.Int).Lsh(x.Big(), uint(lo)))
		}
		if z.SetRepl(x); z.Big().Cmp(want) != 0 {
			t.Logf("SetRepl of width %d into %d: got %s want %x", x.Width(), z.Width(), z, want)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Index is the one reading of a vector as a position: in range or -1,
// whatever the operand width, 2^63 and above included.
func TestIndex(t *testing.T) {
	for _, c := range []struct {
		v     *Vector
		limit int
		want  int
	}{
		{FromUint64(8, 3), 4, 3},
		{FromUint64(8, 4), 4, -1},
		{FromUint64(64, 1<<63), 1 << 20, -1},
		{FromUint64(64, ^uint64(0)), 1 << 20, -1},
		{FromUint64(80, 2), 4, 2},
		{New(80).SetShl(FromUint64(80, 2), 64), 4, -1},
		{New(200), 1, 0},
	} {
		if got := c.v.Index(c.limit); got != c.want {
			t.Errorf("%s.Index(%d) = %d, want %d", c.v, c.limit, got, c.want)
		}
	}
}

// Wrap lends a vector over caller-owned words: operations write through
// to them and allocate nothing.
func TestWrapSharesWords(t *testing.T) {
	words := make([]uint64, 2)
	z := Wrap(100, words)
	x, y := FromUint64(100, 7), New(100).SetShl(FromUint64(100, 5), 64)
	if n := testing.AllocsPerRun(100, func() { z.SetAdd(x, y) }); n != 0 {
		t.Fatalf("SetAdd into a wrapped vector allocates %.0f times", n)
	}
	if words[0] != 7 || words[1] != 5 {
		t.Fatalf("words = %v, want [7 5]", words)
	}
}
