// Package imagetest reads engine state images by variable name, as the
// runtime does only where a program version changes. Only tests import it.
package imagetest

import (
	"cascade/internal/bits"
	"cascade/internal/elab"
)

// State is an image read through its layout.
type State struct {
	L   *elab.Layout
	Img []uint64
}

// Of reads img through l.
func Of(l *elab.Layout, img []uint64) State { return State{l, img} }

// Array returns the elements of the memory named name — the value of a
// scalar — or nil if the layout has no such variable.
func (s State) Array(name string) (out []*bits.Vector) {
	if i := s.L.Index(name); i >= 0 {
		v, words := s.L.Vars[i], s.L.Of(s.Img, i)
		for n := bits.WordsFor(v.Width); len(words) > 0; words = words[n:] {
			w := bits.Wrap(v.Width, words[:n])
			out = append(out, w.Clone())
		}
	}
	return out
}

// Scalar returns the value of the scalar variable named name.
func (s State) Scalar(name string) *bits.Vector { return s.Array(name)[0] }

// Set overwrites the scalar variable named name with v, truncated or
// zero-extended to its width.
func (s State) Set(name string, v *bits.Vector) {
	i := s.L.Index(name)
	w := bits.Wrap(s.L.Vars[i].Width, s.L.Of(s.Img, i))
	w.CopyFrom(v)
}
