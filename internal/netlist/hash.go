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

	// One capacity check per record (an instruction, a slot, a state
	// word): what it encodes is appended after it unchecked.
	h.ints(len(p.Code))
	for i := range p.Code {
		op := &p.Code[i]
		h.room()
		h.put(int(op.Kind))
		h.put(int(op.Dst))
		h.put(int(op.Width))
		h.put(int(op.Hi))
		h.put(int(op.Lo))
		h.put(int(op.N))
		h.put(int(op.Target))
		h.put(int(op.Aux))
		srcs := p.Srcs(op)
		h.put(len(srcs))
		for _, s := range srcs {
			h.put(int(s))
		}
		h.put(int(B2U(op.Wide)))
		h.vec(p.Const(op))
	}

	h.ints(len(p.Slots))
	for _, s := range p.Slots {
		h.room()
		h.put(s.Width)
		h.put(int(B2U(s.Wide)))
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
		h.room()
		h.str(m.Var.Name)
		h.put(m.Words)
		h.put(m.Width)
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
		h.room()
		h.put(int(t.Src.Kind))
		h.str(t.Src.Format)
		h.put(int(B2U(t.Monitor)))
	}

	// Reset state, then reset memories — the Flat's variables, by name —
	// each in name order for determinism, the order synthesis recorded.
	vars := p.Flat.Vars
	order := p.byName
	if len(order) != len(vars) { // a program not built by synthesis
		order = sortByName(vars, nil)
	}
	l := p.Flat.Layout()
	h.room()
	h.len32(len(vars) - len(p.Mems))
	for _, i := range order {
		if v := vars[i]; !v.IsArray() {
			h.room()
			h.str(v.Name)
			h.words(v.Width, l.Of(p.Reset, int(i)))
		}
	}
	h.ints(len(p.Mems))
	for _, i := range order {
		if v := vars[i]; v.IsArray() {
			h.room()
			h.str(v.Name)
			h.put(v.ArrayLen)
			img, n := l.Of(p.Reset, int(i)), bv.WordsFor(v.Width)
			for ; len(img) > 0; img = img[n:] {
				h.room()
				h.words(v.Width, img[:n])
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

// room flushes a buffer that has filled. Every record starts with it,
// and the encoders below append after it unchecked: the buffer has room
// for a batch more, and a record larger than that only grows it.
func (h *hasher) room() {
	if len(h.buf) >= hashBatch {
		h.flush()
	}
}

// put hashes an integer as 64 bits.
func (h *hasher) put(v int) { h.buf = binary.LittleEndian.AppendUint64(h.buf, uint64(v)) }

// ints hashes integers, as many as there are: the one encoder that makes
// room for each.
func (h *hasher) ints(vs ...int) {
	for _, v := range vs {
		h.room()
		h.put(v)
	}
}

// len32 hashes a string length or element count as 32 bits.
func (h *hasher) len32(n int) { h.buf = binary.LittleEndian.AppendUint32(h.buf, uint32(n)) }

func (h *hasher) str(s string) {
	h.len32(len(s))
	h.buf = append(h.buf, s...)
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

// words hashes the width-bit value held in words as vec does.
func (h *hasher) words(width int, words []uint64) {
	v := bv.Wrap(width, words)
	h.vec(&v)
}
