package elab

import "cascade/internal/bits"

// Layout is where a subprogram's variables lie in a state image, the one
// form engine state takes in every hand-off, snapshot and wire frame: the
// variables in order, a scalar as its bits.WordsFor(Width) words, a
// memory as that many per element, at offsets computed once.
type Layout struct {
	Vars  []*Var
	at    []int32 // at[i] is where Vars[i] starts; at[len(Vars)] is the image length
	bus   uint64
	index map[string]int
}

// NewLayout lays out vars in order (Var.Index is each one's position);
// index maps their names to positions, or is nil to be built here.
func NewLayout(vars []*Var, index map[string]int) *Layout {
	l := &Layout{Vars: vars, at: make([]int32, len(vars)+1), index: index}
	if index == nil {
		l.index = make(map[string]int, len(vars))
		for i, v := range vars {
			l.index[v.Name] = i
		}
	}
	for i, v := range vars {
		l.at[i+1] = l.at[i] + int32(max(v.ArrayLen, 1)*bits.WordsFor(v.Width))
		l.bus += l.VarBus(i)
	}
	return l
}

// Len is the length of an image in the layout.
func (l *Layout) Len() int { return int(l.at[len(l.Vars)]) }

// Of returns variable i's words in img, a memory's elements in order.
func (l *Layout) Of(img []uint64, i int) []uint64 { return img[l.at[i]:l.at[i+1]] }

// Index returns the position of the variable named name, or -1.
func (l *Layout) Index(name string) int {
	if i, ok := l.index[name]; ok {
		return i
	}
	return -1
}

// Bus is the 32-bit bus words an image in the layout occupies: what
// moving one across the memory-mapped bus costs (the ABI's
// address-mapped state access, Figure 10 lines 49–53).
func (l *Layout) Bus() uint64 { return l.bus }

// VarBus is the 32-bit bus words variable i occupies.
func (l *Layout) VarBus(i int) uint64 {
	v := l.Vars[i]
	return uint64(max(v.ArrayLen, 1) * ((v.Width + 31) / 32))
}

// Layout returns the layout of f's state images.
func (f *Flat) Layout() *Layout {
	if f.layout == nil {
		f.layout = NewLayout(f.Vars, f.VarIndex)
	}
	return f.layout
}

// Plan copies values between images of two layouts, variable by variable
// (the names a version change keeps, or the inline renaming): scalar to
// scalar truncated or zero-extended (bits.Vector.CopyFrom's rule), memory
// to memory element by element, up to the shorter.
type Plan struct {
	From, To *Layout
	Pairs    [][2]int32 // From index, To index
}

// NewPlan pairs each variable of from with the variable of to named
// rename(name) (name itself when rename is nil), where there is one of
// the same kind.
func NewPlan(from, to *Layout, rename func(name string) string) *Plan {
	p := &Plan{From: from, To: to}
	for i, v := range from.Vars {
		name := v.Name
		if rename != nil {
			name = rename(name)
		}
		if j := to.Index(name); j >= 0 && v.IsArray() == to.Vars[j].IsArray() {
			p.Pairs = append(p.Pairs, [2]int32{int32(i), int32(j)})
		}
	}
	return p
}

// Copy writes the planned variables of src, an image of From, into dst,
// an image of To; the rest of dst is left as it was.
func (p *Plan) Copy(dst, src []uint64) {
	for _, pr := range p.Pairs {
		copyVar(p.To, int(pr[1]), dst, p.From, int(pr[0]), src)
	}
}

// Back is Copy the other way: the planned variables of src, an image of
// To, into dst, an image of From.
func (p *Plan) Back(dst, src []uint64) {
	for _, pr := range p.Pairs {
		copyVar(p.From, int(pr[0]), dst, p.To, int(pr[1]), src)
	}
}

// copyVar copies variable si of an image src of sl into variable di of
// an image dst of dl (Plan's rule).
func copyVar(dl *Layout, di int, dst []uint64, sl *Layout, si int, src []uint64) {
	dv, sv := dl.Vars[di], sl.Vars[si]
	dw, sw := dl.Of(dst, di), sl.Of(src, si)
	dn, sn := bits.WordsFor(dv.Width), bits.WordsFor(sv.Width)
	for len(dw) > 0 && len(sw) > 0 {
		d, s := bits.Wrap(dv.Width, dw[:dn]), bits.Wrap(sv.Width, sw[:sn])
		d.CopyFrom(&s)
		dw, sw = dw[dn:], sw[sn:]
	}
}
