package sim

import "cascade/internal/bits"

// GetState returns every variable as a fresh image in the Flat's layout.
// Including non-stateful ones is harmless — they are recomputed after a
// set — and makes hand-offs between engine kinds exact.
func (s *Simulator) GetState() []uint64 {
	l := s.flat.Layout()
	img := make([]uint64, l.Len())
	for _, v := range s.flat.Vars {
		w := l.Of(img, v.Index)
		if !v.IsArray() {
			copy(w, s.vals[v.Index].Words())
			continue
		}
		for _, e := range s.arrays[v.Index] {
			w = w[copy(w, e.Words()):]
		}
	}
	return img
}

// SetState installs an image in the Flat's layout without firing edge
// events (a hardware-to-software hand-off must not fabricate clock
// edges), re-activating combinational logic to settle derived values.
func (s *Simulator) SetState(img []uint64) {
	l := s.flat.Layout()
	for _, v := range s.flat.Vars {
		w := l.Of(img, v.Index)
		if !v.IsArray() {
			src := bits.Wrap(v.Width, w)
			s.vals[v.Index].CopyFrom(&src)
			continue
		}
		n := bits.WordsFor(v.Width)
		for _, e := range s.arrays[v.Index] {
			src := bits.Wrap(v.Width, w[:n])
			e.CopyFrom(&src)
			w = w[n:]
		}
	}
	s.activateCombinational()
}

// activateCombinational marks every continuous assignment and
// level-sensitive process active.
func (s *Simulator) activateCombinational() {
	na := len(s.flat.Assigns)
	for i := range na {
		s.activate(i)
	}
	for i, p := range s.flat.Procs {
		if p.Star || hasLevel(p) {
			s.activate(na + i)
		}
	}
}
