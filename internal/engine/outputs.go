package engine

import "cascade/internal/bits"

// Outputs detects output changes by value, for an engine's DrainWrites:
// it retains the value last reported for each output, by position in the
// subprogram's output list, and allocates only the first time it sees an
// output. An output never reported counts as changed, which is what
// makes an engine's first drain broadcast everything.
type Outputs struct{ last []*bits.Vector }

// NewOutputs returns a tracker for n outputs.
func NewOutputs(n int) Outputs { return Outputs{last: make([]*bits.Vector, n)} }

// Changed reports whether cur differs from the value last passed for
// output i, and retains a copy of it. cur may be borrowed.
func (o Outputs) Changed(i int, cur *bits.Vector) bool {
	if o.last[i] == nil {
		o.last[i] = cur.Clone()
		return true
	}
	return o.last[i].CopyFrom(cur)
}
