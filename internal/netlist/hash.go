package netlist

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"

	bv "cascade/internal/bits"
)

// Fingerprint returns a canonical content hash of the synthesized
// netlist: two programs with the same fingerprint execute identically —
// same code, same slot layout, same schedule, same reset state, and the
// same system-task side effects (including the instance path reported by
// %m). The toolchain's bitstream cache is keyed on this hash, so
// re-synthesizing an unchanged design (an edit that undoes a change, a
// snapshot restored onto a same-shape device) can skip place-and-route
// entirely. Port directions are not covered — they change how an engine
// is wired, not what the netlist computes or costs — so a consumer keeps
// the program it synthesized rather than taking one from a key match.
func (p *Program) Fingerprint() string {
	// Everything is encoded by hand into one reused buffer and batched
	// into the hash: a netlist hashes thousands of integers and constants,
	// and encoding/binary.Write or a string per vector would allocate for
	// each. The digest is pinned by TestFingerprintGolden — on-disk
	// bitstream stores are keyed by it.
	h := hasher{sum: sha256.New(), buf: make([]byte, 0, 2*hashBatch)}
	h.str(p.Flat.Name) // %m output is part of observable behaviour

	h.ints(len(p.Code))
	for i := range p.Code {
		op := &p.Code[i]
		h.ints(int(op.Kind), op.Dst, op.Width, op.Hi, op.Lo, op.N, op.Target, op.Aux)
		h.ints(len(op.Srcs))
		h.ints(op.Srcs...)
		h.ints(int(B2U(op.Wide)))
		h.vec(op.Const)
	}

	h.ints(len(p.Slots))
	for _, s := range p.Slots {
		h.ints(s.Width)
		h.ints(int(B2U(s.Wide)))
		if s.Var != nil {
			h.str(s.Var.Name)
		} else {
			h.str("")
		}
	}

	h.ints(len(p.VarSlot))
	h.ints(p.VarSlot...)
	h.ints(len(p.MemOf))
	h.ints(p.MemOf...)
	h.ints(len(p.Mems))
	for _, m := range p.Mems {
		h.str(m.Var.Name)
		h.ints(m.Words, m.Width)
	}

	h.ints(len(p.Comb))
	for _, c := range p.Comb {
		h.ints(c.Entry)
	}
	h.ints(len(p.Seq))
	for _, sp := range p.Seq {
		h.ints(sp.Entry, len(sp.Edges))
		for _, e := range sp.Edges {
			h.ints(int(e.Kind), e.Var.Index)
		}
	}
	h.ints(len(p.Monitors))
	for _, m := range p.Monitors {
		h.ints(m.Entry)
	}
	h.ints(len(p.Tasks))
	for _, t := range p.Tasks {
		h.ints(int(t.Src.Kind))
		h.str(t.Src.Format)
		h.ints(int(B2U(t.Monitor)))
	}

	// Reset state, then reset memories — the Flat's variables, by name —
	// each in name order for determinism, the order synthesis recorded.
	order := p.byName
	if len(order) != len(p.Flat.Vars) { // a program not built by synthesis
		order = sortByName(p.Flat.Vars, nil)
	}
	h.len32(len(p.ResetState))
	for _, i := range order {
		if n := p.Flat.Vars[i].Name; !p.Flat.Vars[i].IsArray() {
			h.str(n)
			h.vec(p.ResetState[n])
		}
	}
	h.ints(len(p.ResetMems))
	for _, i := range order {
		if n := p.Flat.Vars[i].Name; p.Flat.Vars[i].IsArray() {
			h.str(n)
			words := p.ResetMems[n]
			h.ints(len(words))
			for _, w := range words {
				h.vec(w)
			}
		}
	}

	h.flush()
	var digest [sha256.Size]byte
	return hex.EncodeToString(h.sum.Sum(digest[:0]))
}

// hashBatch is how many encoded bytes a hasher gathers between writes.
const hashBatch = 4096

// hasher batches Fingerprint's encoding into a hash.
type hasher struct {
	sum hash.Hash
	buf []byte
}

func (h *hasher) flush() {
	h.sum.Write(h.buf)
	h.buf = h.buf[:0]
}

// room flushes a buffer that has filled; every encoder appends after it.
func (h *hasher) room() {
	if len(h.buf) >= hashBatch {
		h.flush()
	}
}

// len32 hashes a string length or map size as 32 bits.
func (h *hasher) len32(n int) {
	h.room()
	h.buf = binary.LittleEndian.AppendUint32(h.buf, uint32(n))
}

func (h *hasher) str(s string) {
	h.len32(len(s))
	h.buf = append(h.buf, s...)
}

func (h *hasher) ints(vs ...int) {
	for _, v := range vs {
		h.room()
		h.buf = binary.LittleEndian.AppendUint64(h.buf, uint64(v))
	}
}

// vec hashes a vector as the string it prints as, formatted in place:
// the length is patched in once the digits are down.
func (h *hasher) vec(v *bv.Vector) {
	if v == nil {
		h.str("<nil>")
		return
	}
	h.len32(0)
	at := len(h.buf)
	h.buf = v.AppendString(h.buf)
	binary.LittleEndian.PutUint32(h.buf[at-4:], uint32(len(h.buf)-at))
}
