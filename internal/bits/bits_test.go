package bits

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// refMask returns 2^width-1 as a big.Int.
func refMask(width int) *big.Int {
	return new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(width)), big.NewInt(1))
}

// randVec draws a random vector of random width in [1,130].
func randVec(r *rand.Rand) *Vector {
	width := 1 + r.Intn(130)
	v := New(width)
	for i := range v.words {
		v.words[i] = r.Uint64()
	}
	v.normalize()
	return v
}

func TestNewZeroAndWidthClamp(t *testing.T) {
	v := New(0)
	if v.Width() != 1 {
		t.Fatalf("width clamp: got %d, want 1", v.Width())
	}
	if !v.IsZero() {
		t.Fatal("New is not zero")
	}
	if New(-5).Width() != 1 {
		t.Fatal("negative width not clamped")
	}
}

func TestFromUint64Truncates(t *testing.T) {
	v := FromUint64(4, 0xff)
	if v.Uint64() != 0xf {
		t.Fatalf("truncation: got %x, want f", v.Uint64())
	}
}

func TestFromBigNegativeIsTwosComplement(t *testing.T) {
	v := FromBig(8, big.NewInt(-1))
	if v.Uint64() != 0xff {
		t.Fatalf("-1 at width 8: got %x, want ff", v.Uint64())
	}
	v = FromBig(8, big.NewInt(-2))
	if v.Uint64() != 0xfe {
		t.Fatalf("-2 at width 8: got %x, want fe", v.Uint64())
	}
}

func TestBitAndSetBit(t *testing.T) {
	v := New(70)
	v.SetBit(69, 1)
	if v.Bit(69) != 1 {
		t.Fatal("SetBit(69) not observed")
	}
	v.SetBit(69, 0)
	if !v.IsZero() {
		t.Fatal("clearing bit 69 did not zero vector")
	}
	v.SetBit(100, 1) // out of range: ignored
	if !v.IsZero() {
		t.Fatal("out-of-range SetBit mutated vector")
	}
	if v.Bit(-1) != 0 || v.Bit(70) != 0 {
		t.Fatal("out-of-range Bit should read 0")
	}
}

func TestCopyFromReportsChange(t *testing.T) {
	a := FromUint64(8, 5)
	b := FromUint64(8, 5)
	if a.CopyFrom(b) {
		t.Fatal("CopyFrom of equal value reported change")
	}
	if !a.CopyFrom(FromUint64(8, 6)) {
		t.Fatal("CopyFrom of new value did not report change")
	}
	if a.Uint64() != 6 {
		t.Fatal("CopyFrom did not copy")
	}
}

func TestCopyFromTruncates(t *testing.T) {
	a := New(4)
	a.CopyFrom(FromUint64(16, 0x1ff))
	if a.Uint64() != 0xf {
		t.Fatalf("got %x, want f", a.Uint64())
	}
}

// The value forms left (elab folds with them) against math/big, at the
// max operand width; every destination form is in dest_test.go.
func TestArithAgainstBig(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	ops := []struct {
		name string
		vec  func(a, b *Vector) *Vector
		ref  func(x, y *big.Int) *big.Int
	}{
		{"and", (*Vector).And, func(x, y *big.Int) *big.Int { return new(big.Int).And(x, y) }},
		{"xor", (*Vector).Xor, func(x, y *big.Int) *big.Int { return new(big.Int).Xor(x, y) }},
	}
	for _, op := range ops {
		for i := 0; i < 300; i++ {
			a, b := randVec(r), randVec(r)
			got := op.vec(a, b)
			w := got.Width()
			want := new(big.Int).And(op.ref(a.Big(), b.Big()), refMask(w))
			if got.Big().Cmp(want) != 0 {
				t.Fatalf("%s(%v,%v): got %v, want %v", op.name, a, b, got.Big(), want)
			}
			if wa, wb := a.Width(), b.Width(); w != max(wa, wb) {
				t.Fatalf("%s width: got %d, want %d", op.name, w, max(wa, wb))
			}
		}
	}
}

func TestDivModByZero(t *testing.T) {
	a := FromUint64(8, 42)
	z := New(8)
	if !New(8).SetDiv(a, z).IsZero() || !New(8).SetMod(a, z).IsZero() || !New(100).SetDiv(a, z).IsZero() {
		t.Fatal("div/mod by zero should yield zero in the 2-state model")
	}
}

func TestPow(t *testing.T) {
	a := FromUint64(16, 3)
	if got := New(16).SetPow(a, FromUint64(8, 5)).Uint64(); got != 243 {
		t.Fatalf("3**5: got %d, want 243", got)
	}
	if got := New(16).SetPow(a, New(4)).Uint64(); got != 1 {
		t.Fatalf("3**0: got %d, want 1", got)
	}
	// Truncation at width.
	b := FromUint64(4, 2)
	if got := New(4).SetPow(b, FromUint64(8, 10)).Uint64(); got != (1024 & 0xf) {
		t.Fatalf("2**10 at width 4: got %d, want %d", got, 1024&0xf)
	}
}

func TestShiftHugeAmount(t *testing.T) {
	a := FromUint64(8, 0xff)
	huge := FromUint64(128, 0).Clone()
	huge.SetBit(100, 1)
	if !New(8).SetShl(a, huge.Index(8)).IsZero() || !New(8).SetShr(a, huge.Index(8)).IsZero() {
		t.Fatal("shift by >64-bit amount should flush to zero")
	}
}

func TestNotAndReductions(t *testing.T) {
	a := FromUint64(4, 0b1010)
	if got := New(4).SetNot(a).Uint64(); got != 0b0101 {
		t.Fatalf("not: got %b", got)
	}
	if a.RedAnd().Bool() {
		t.Fatal("redand of 1010 should be 0")
	}
	if !FromUint64(4, 0xf).RedAnd().Bool() {
		t.Fatal("redand of 1111 should be 1")
	}
	if !New(1).SetRedOr(a).Bool() || New(1).SetRedOr(New(4)).Bool() {
		t.Fatal("redor wrong")
	}
	if New(1).SetRedXor(a).Bool() { // two ones -> parity 0
		t.Fatal("redxor of 1010 should be 0")
	}
	if !New(1).SetRedXor(FromUint64(4, 0b1000)).Bool() {
		t.Fatal("redxor of 1000 should be 1")
	}
}

func TestRedAndWide(t *testing.T) {
	v := New(70)
	for i := 0; i < 70; i++ {
		v.SetBit(i, 1)
	}
	if !v.RedAnd().Bool() {
		t.Fatal("redand of all-ones 70-bit should be 1")
	}
	v.SetBit(69, 0)
	if v.RedAnd().Bool() {
		t.Fatal("redand with one zero bit should be 0")
	}
}

func TestXnor(t *testing.T) {
	a := FromUint64(4, 0b1100)
	b := FromUint64(4, 0b1010)
	if got := New(4).SetXnor(a, b).Uint64(); got != 0b1001 {
		t.Fatalf("xnor: got %04b, want 1001", got)
	}
}

func TestSliceAndConcat(t *testing.T) {
	a := FromUint64(8, 0b1011_0110)
	s := a.Slice(5, 2)
	if s.Width() != 4 || s.Uint64() != 0b1101 {
		t.Fatalf("slice[5:2]: got %d'%04b", s.Width(), s.Uint64())
	}
	c := New(8).Set(FromUint64(4, 0x5)) // {4'ha, 4'h5}, the low part first
	c.SetSlice(7, 4, FromUint64(4, 0xa))
	if c.Uint64() != 0xa5 {
		t.Fatalf("concat: got %d'%02x", c.Width(), c.Uint64())
	}
	if a.Slice(1, 3).Width() != 1 {
		t.Fatal("inverted slice should be 1-bit")
	}
}

func TestSetSlice(t *testing.T) {
	a := New(8)
	if !a.SetSlice(5, 2, FromUint64(4, 0xf)) {
		t.Fatal("SetSlice did not report change")
	}
	if a.Uint64() != 0b0011_1100 {
		t.Fatalf("SetSlice: got %08b", a.Uint64())
	}
	if a.SetSlice(5, 2, FromUint64(4, 0xf)) {
		t.Fatal("idempotent SetSlice reported change")
	}
	// Clipped high bound.
	b := New(4)
	b.SetSlice(10, 2, FromUint64(9, 0x1ff))
	if b.Uint64() != 0b1100 {
		t.Fatalf("clipped SetSlice: got %04b", b.Uint64())
	}
}

func TestRepl(t *testing.T) {
	a := FromUint64(2, 0b10)
	if r := New(6).SetRepl(a); r.Uint64() != 0b101010 {
		t.Fatalf("repl: got %d'%06b", r.Width(), r.Uint64())
	}
}

func TestCmpAcrossWidths(t *testing.T) {
	a := FromUint64(8, 200)
	b := FromUint64(100, 200)
	if a.Cmp(b) != 0 || !a.Equal(b) {
		t.Fatal("equal values at different widths should compare equal")
	}
	c := New(100)
	c.SetBit(90, 1)
	if a.Cmp(c) != -1 || c.Cmp(a) != 1 {
		t.Fatal("wide comparison wrong")
	}
}

func TestFormatting(t *testing.T) {
	v := FromUint64(8, 0x80)
	if v.String() != "8'h80" {
		t.Fatalf("String: %s", v.String())
	}
	if v.Bin() != "10000000" {
		t.Fatalf("Bin: %s", v.Bin())
	}
	if v.Dec() != "128" {
		t.Fatalf("Dec: %s", v.Dec())
	}
	if v.Oct() != "200" {
		t.Fatalf("Oct: %s", v.Oct())
	}
	if FromUint64(12, 0xabc).Hex() != "abc" {
		t.Fatal("hex digits wrong")
	}
	// Width not a multiple of 4 still formats the right digit count.
	if got := FromUint64(9, 0x1ff).Hex(); got != "1ff" {
		t.Fatalf("9-bit hex: %s", got)
	}
}

func TestParseLiteral(t *testing.T) {
	cases := []struct {
		in    string
		width int
		val   uint64
	}{
		{"8'h80", 8, 0x80},
		{"4'b1010", 4, 0b1010},
		{"4'b10_10", 4, 0b1010},
		{"12'd15", 12, 15},
		{"8'o17", 8, 0o17},
		{"'h4", 32, 4},
		{"42", 32, 42},
		{"3'd9", 3, 1}, // truncation to width
		{"1'b1", 1, 1},
	}
	for _, c := range cases {
		v, err := ParseLiteral(c.in)
		if err != nil {
			t.Fatalf("ParseLiteral(%q): %v", c.in, err)
		}
		if v.Width() != c.width || v.Uint64() != c.val {
			t.Fatalf("ParseLiteral(%q): got %d'%x, want %d'%x", c.in, v.Width(), v.Uint64(), c.width, c.val)
		}
	}
}

func TestParseLiteralErrors(t *testing.T) {
	for _, in := range []string{"", "8'", "8'q10", "8'hxz", "abc", "0'h0", "8'h", "-3"} {
		if _, err := ParseLiteral(in); err == nil {
			t.Fatalf("ParseLiteral(%q): expected error", in)
		}
	}
}

func TestParseLiteralWideDecimal(t *testing.T) {
	v, err := ParseLiteral("18446744073709551616") // 2^64
	if err != nil {
		t.Fatal(err)
	}
	if v.Width() != 65 {
		t.Fatalf("width widened to %d, want 65", v.Width())
	}
	if v.Bit(64) != 1 || v.Uint64() != 0 {
		t.Fatal("2^64 value wrong")
	}
}

func TestMinWidthFor(t *testing.T) {
	cases := map[uint64]int{0: 1, 1: 1, 2: 2, 3: 2, 4: 3, 255: 8, 256: 9}
	for v, w := range cases {
		if got := MinWidthFor(v); got != w {
			t.Fatalf("MinWidthFor(%d): got %d, want %d", v, got, w)
		}
	}
}

// Property: Sub(Add(a,b),b) == a (round trip at equal width).
func TestQuickAddSubRoundTrip(t *testing.T) {
	f := func(x, y uint64, wSeed uint8) bool {
		w := 1 + int(wSeed)%100
		a, b := FromUint64(w, x), FromUint64(w, y)
		z := New(w).SetAdd(a, b)
		return z.SetSub(z, b).Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Not is an involution and Neg(a) == Not(a)+1.
func TestQuickNotNeg(t *testing.T) {
	f := func(x uint64, wSeed uint8) bool {
		w := 1 + int(wSeed)%100
		a, z := FromUint64(w, x), New(w)
		if !z.SetNot(a).SetNot(z).Equal(a) {
			return false
		}
		return New(w).SetNeg(a).Equal(z.SetAdd(z.SetNot(a), FromUint64(w, 1)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: slicing {a, b} recovers both halves.
func TestQuickConcatSlice(t *testing.T) {
	f := func(x, y uint64, wa, wb uint8) bool {
		a := FromUint64(1+int(wa)%60, x)
		b := FromUint64(1+int(wb)%60, y)
		c := New(a.Width() + b.Width()).Set(b)
		c.SetSlice(c.Width()-1, b.Width(), a)
		hi := c.Slice(c.Width()-1, b.Width())
		lo := c.Slice(b.Width()-1, 0)
		return hi.Equal(a) && lo.Equal(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: shifting left then right by the same in-range amount masks the
// top n bits.
func TestQuickShiftRoundTrip(t *testing.T) {
	f := func(x uint64, wSeed, nSeed uint8) bool {
		w := 2 + int(wSeed)%100
		n := int(nSeed) % w
		a := FromUint64(w, x)
		got := New(w).SetShl(a, n)
		got.SetShr(got, n)
		want := a.Slice(w-1-n, 0).Resize(w)
		return got.Equal(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAdd128(b *testing.B) {
	x := FromUint64(128, 0xdeadbeefcafebabe)
	y := FromUint64(128, 0x0123456789abcdef)
	z := New(128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		z.SetAdd(x, y)
	}
}

func BenchmarkCopyFrom128(b *testing.B) {
	x := FromUint64(128, 0xdeadbeefcafebabe)
	y := New(128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		y.CopyFrom(x)
	}
}

func TestCopyFromMasksDenormalizedSource(t *testing.T) {
	// A source vector that violates the normalization invariant (junk
	// above its semantic width) must still copy at its semantic width:
	// the junk may not leak into a wider destination.
	src := New(40)
	src.words[0] = ^uint64(0) // bits [40,64) are junk under the invariant
	dst := New(100)
	dst.CopyFrom(src)
	want := (uint64(1) << 40) - 1
	if dst.words[0] != want {
		t.Fatalf("CopyFrom leaked junk above source width: got %#x, want %#x", dst.words[0], want)
	}
	if dst.words[1] != 0 {
		t.Fatalf("CopyFrom dirtied high destination word: %#x", dst.words[1])
	}

	// Multi-word source with a dirty top word into an even wider dest.
	src2 := New(70)
	src2.words[0] = 0xdeadbeefcafef00d
	src2.words[1] = ^uint64(0) // only 6 bits are semantic
	dst2 := New(200)
	dst2.CopyFrom(src2)
	if dst2.words[1] != (uint64(1)<<6)-1 {
		t.Fatalf("CopyFrom leaked junk in top source word: %#x", dst2.words[1])
	}
}

func TestSetUint64InPlace(t *testing.T) {
	v := New(40)
	if !v.SetUint64(^uint64(0)) {
		t.Fatal("SetUint64: change not reported")
	}
	if got, want := v.Uint64(), (uint64(1)<<40)-1; got != want {
		t.Fatalf("SetUint64 truncation: got %#x, want %#x", got, want)
	}
	if v.SetUint64(^uint64(0)) {
		t.Fatal("SetUint64: spurious change reported")
	}
	// Wide vector: high words must be cleared and counted as a change.
	w := New(130)
	w.words[1] = 7
	w.words[2] = 1
	if !w.SetUint64(5) {
		t.Fatal("SetUint64 wide: change not reported")
	}
	for i := 1; i < len(w.words); i++ {
		if w.words[i] != 0 {
			t.Fatalf("SetUint64 wide: word %d not cleared: %#x", i, w.words[i])
		}
	}
	if w.Uint64() != 5 {
		t.Fatalf("SetUint64 wide: got %d, want 5", w.Uint64())
	}
	if n := testing.AllocsPerRun(100, func() { w.SetUint64(9) }); n != 0 {
		t.Fatalf("SetUint64 allocates: %v allocs/op", n)
	}
}
