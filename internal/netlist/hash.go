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
//
// The code enters the hash as its units' digests (UnitCode.Digest), each
// beside the unit's binding: the variable list its code's variable
// references index. With the variables' declarations, slots and reset
// image and the schedule's counts and edges, that is every field the
// program executes, in O(units + variables): an edit's program shares
// all but its new units' digests with its base's, and no instruction is
// hashed again.
func (p *Program) Fingerprint() string { return p.fingerprint(nil) }

// fingerprint is Fingerprint, adding the bytes it feeds the hash to *fed
// (nil: none; tests count them, export_test.go).
func (p *Program) fingerprint(fed *int) string {
	// Everything is encoded by hand into one reused buffer and batched
	// into the hash: encoding/binary.Write or a string per value would
	// allocate for each. The digest is pinned by TestFingerprintGolden —
	// on-disk bitstream stores are keyed by it.
	h := newHasher(hashBatch, fed)
	h.str(p.Flat.Name) // %m output is part of observable behaviour
	ops := 0
	for i := range p.Spans {
		ops += len(p.Spans[i].Ops)
	}
	h.ints(ops, len(p.Slots), len(p.Tasks), len(p.Spans))
	for i := range p.Spans {
		lo, hi := p.spanVars(i)
		h.room()
		h.buf = append(h.buf, p.Spans[i].Digest[:]...)
		h.put(hi - lo)
		for _, e := range p.Vars[lo:hi] {
			h.put(int(e))
		}
	}

	// The variables, in index order (the reset image's layout): each
	// one's declaration and where it is held.
	vars, nvar := p.Flat.Vars, p.varSlots()
	h.ints(len(vars), nvar, len(p.Mems))
	held := true
	for i, v := range vars {
		s, m := p.VarSlot[i], p.MemOf[i]
		h.room()
		h.str(v.Name)
		h.put(v.Width)
		h.put(v.ArrayLen)
		h.put(s)
		h.put(m)
		held = held && (s < 0 || s < nvar && p.Slots[s].Var == v) && (m < 0 || m < len(p.Mems) && p.Mems[m].Var == v)
	}
	// Synthesis gives each variable a slot or a memory of its shape that
	// names it back: then the variables say all the tables do, and only a
	// program that breaks that hashes them.
	for i, s := range p.Slots[:nvar] {
		held = held && s.Var != nil && p.VarSlot[s.Var.Index] == i && s.Width == s.Var.Width && s.Wide == (s.Width > 64)
	}
	for m, mi := range p.Mems {
		held = held && p.MemOf[mi.Var.Index] == m && mi.Words == mi.Var.ArrayLen && mi.Width == mi.Var.Width && mi.Wide == (mi.Width > 64)
	}
	h.ints(int(B2U(held)))
	if !held {
		for _, s := range p.Slots[:nvar] {
			h.room()
			if s.Var != nil {
				h.put(s.Var.Index)
			} else {
				h.put(-1)
			}
			h.put(s.Width)
			h.put(int(B2U(s.Wide)))
		}
		for _, m := range p.Mems {
			h.room()
			h.put(m.Var.Index)
			h.put(m.Words)
			h.put(m.Width)
			h.put(int(B2U(m.Wide)))
		}
	}

	// The schedule is span order: its three counts, then a constant 1
	// where an older encoding flagged that order, so that bitstream
	// stores keyed by the digest stay valid.
	nseq := len(p.Seq)
	h.ints(p.Comb, nseq, len(p.Spans)-p.Comb-nseq, 1)
	for _, sp := range p.Seq {
		h.room()
		h.put(len(sp.Edges))
		for _, e := range sp.Edges {
			h.put(int(e.Kind))
			h.put(sp.Frame[e.Var].Index)
		}
	}

	// The reset image, word for word: its layout is the declarations'.
	h.ints(len(p.Reset))
	for _, w := range p.Reset {
		h.room()
		h.buf = binary.AppendUvarint(h.buf, w)
	}

	h.flush()
	var digest [sha256.Size]byte
	return hex.EncodeToString(h.sum.Sum(digest[:0]))
}

// unitBatch is how many encoded bytes a unit's digest gathers between
// writes: a unit is a few dozen instructions.
const unitBatch = 256

// digest hashes unit code c with its tasks into out, reusing h. Unit
// form does not depend on where a link placed the unit, so neither does
// the digest.
func (h *hasher) digest(c *UnitCode, tasks []Task, out *[sha256.Size]byte) {
	h.sum.Reset()
	h.ints(len(c.Ops))
	for i := range c.Ops {
		op := &c.Ops[i]
		h.room()
		h.put(int(op.Kind))
		h.put(int(op.Dst))
		h.put(int(op.Width))
		h.put(int(op.Hi))
		h.put(int(op.Lo))
		h.put(int(op.N))
		h.put(int(op.Target))
		h.put(int(op.Aux))
		h.put(int(B2U(op.Wide)))
		h.put(int(op.NSrcs))
		for _, s := range c.Operands[op.Src : op.Src+op.NSrcs] {
			h.put(int(s))
		}
		if op.Const >= 0 {
			h.vec(c.Consts[op.Const])
		} else {
			h.vec(nil)
		}
	}
	h.ints(len(c.TempWidths))
	for _, w := range c.TempWidths {
		h.room()
		h.put(int(w))
		h.put(int(B2U(w > 64)))
		h.put(-1) // a temporary backs no variable
	}
	h.ints(len(tasks))
	for _, t := range tasks {
		h.room()
		h.put(int(t.Src.Kind))
		h.put(int(B2U(t.Monitor)))
		h.str(t.Src.Format)
	}
	h.flush()
	h.sum.Sum(out[:0])
}

// hashBatch is how many encoded bytes Fingerprint gathers between writes.
const hashBatch = 1024

// hasher batches an encoding into a hash. Integers are zig-zag varints,
// so the counts, indices and widths that make up most of a program hash
// as a byte or two each.
type hasher struct {
	sum   hash.Hash
	buf   []byte
	batch int
	fed   *int // bytes written to sum (nil: not counted)
}

func newHasher(batch int, fed *int) hasher {
	return hasher{sum: sha256.New(), buf: make([]byte, 0, 2*batch), batch: batch, fed: fed}
}

func (h *hasher) flush() {
	if h.fed != nil {
		*h.fed += len(h.buf)
	}
	h.sum.Write(h.buf)
	h.buf = h.buf[:0]
}

// room flushes a buffer that has filled. Every record starts with it,
// and the encoders below append after it unchecked: the buffer has room
// for a batch more, and a record larger than that only grows it.
func (h *hasher) room() {
	if len(h.buf) >= h.batch {
		h.flush()
	}
}

// put hashes an integer.
func (h *hasher) put(v int) { h.buf = binary.AppendVarint(h.buf, int64(v)) }

// ints hashes integers, as many as there are: the one encoder that makes
// room for each.
func (h *hasher) ints(vs ...int) {
	for _, v := range vs {
		h.room()
		h.put(v)
	}
}

func (h *hasher) str(s string) {
	h.put(len(s))
	h.buf = append(h.buf, s...)
}

// vec hashes a vector (nil: none) as the string it prints as, formatted
// in place: its 32-bit length is patched in once the digits are down.
func (h *hasher) vec(v *bv.Vector) {
	if v == nil {
		h.put(0)
		return
	}
	h.put(1)
	h.buf = binary.LittleEndian.AppendUint32(h.buf, 0)
	at := len(h.buf)
	h.buf = v.AppendString(h.buf)
	binary.LittleEndian.PutUint32(h.buf[at-4:], uint32(len(h.buf)-at))
}
