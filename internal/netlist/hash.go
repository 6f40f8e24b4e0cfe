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
// The code enters the hash as its units' digests (Span.Digest), each
// beside the unit's binding: the variable list its digest's variable
// references index. With the variables' declarations, slots and reset
// image and the schedule's entries and edges, that is every field the
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
	h.ints(len(p.Code), len(p.Slots), len(p.Tasks), len(p.Spans))
	if len(p.Spans) == 0 && len(p.Code) > 0 { // code outside any unit: a program not built by synthesis
		u := unitForm{p: p, codeEnd: len(p.Code), temps: len(p.Slots), tempsEnd: len(p.Slots), tasksEnd: len(p.Tasks)}
		var d [sha256.Size]byte
		uh := newHasher(unitBatch, fed)
		uh.digest(&u, &d)
		h.buf = append(h.buf, d[:]...)
	}
	for i := range p.Spans {
		lo, hi := p.spanVars(i)
		h.room()
		h.buf = append(h.buf, p.Spans[i].Digest[:]...)
		h.put(hi - lo)
		for _, e := range p.vars[lo:hi] {
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

	// The schedule: each unit's entry is its span's first instruction,
	// which the digests' lengths give, unless a program says otherwise.
	h.ints(len(p.Comb), len(p.Seq), len(p.Monitors))
	entries := len(p.Comb)+len(p.Seq)+len(p.Monitors) == len(p.Spans)
	for i := 0; entries && i < len(p.Spans); i++ {
		entries = p.entry(i) == int(p.Spans[i].Code)
	}
	h.ints(int(B2U(entries)))
	for i := 0; !entries && i < len(p.Comb)+len(p.Seq)+len(p.Monitors); i++ {
		h.ints(p.entry(i))
	}
	for _, sp := range p.Seq {
		h.room()
		h.put(len(sp.Edges))
		for _, e := range sp.Edges {
			h.put(int(e.Kind))
			h.put(e.Var.Index)
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

// entry returns the entry of the i-th unit of the schedule, counting
// Comb, then Seq, then Monitors.
func (p *Program) entry(i int) int {
	switch {
	case i < len(p.Comb):
		return p.Comb[i].Entry
	case i < len(p.Comb)+len(p.Seq):
		return p.Seq[i-len(p.Comb)].Entry
	}
	return p.Monitors[i-len(p.Comb)-len(p.Seq)].Entry
}

// unitForm renumbers one unit's references into the form its digest
// hashes, which does not depend on where the link placed the unit:
// temporaries, jump targets and tasks count from the unit's own first,
// and a variable or memory is named by its first entry in the unit's
// variable list.
type unitForm struct {
	p               *Program
	vars            []int32 // the unit's variable list (Span.Vars)
	pos             []int32 // Var.Index -> 1 + its first entry in vars (0: none); zero again after digest
	code, codeEnd   int     // the unit's instructions
	temps, tempsEnd int     // its temporary slots
	tasks, tasksEnd int     // its tasks
}

// spanForm returns span i of p in unit form, pos a zeroed scratch table
// of one entry per variable of p.
func spanForm(p *Program, i int, pos []int32) unitForm {
	u := unitForm{p: p, pos: pos}
	lo, hi := p.spanVars(i)
	u.vars = p.vars[lo:hi]
	u.code, u.codeEnd = p.spanCode(i)
	u.temps, u.tempsEnd = p.spanTemps(i)
	u.tasks, u.tasksEnd = p.spanTasks(i)
	return u
}

// outside numbers a reference the unit cannot name relatively — none
// in a program synthesis built — absolutely, apart from every relative
// number.
const outside = -1 << 40

// slot returns slot s in unit form: a temporary of the unit from 0 up, a
// variable of its list from -1 down.
func (u *unitForm) slot(s int32) int {
	switch {
	case int(s) >= u.temps && int(s) < u.tempsEnd:
		return int(s) - u.temps
	case s >= 0 && int(s) < len(u.p.Slots):
		if v := u.p.Slots[s].Var; v != nil && v.Index < len(u.pos) && u.pos[v.Index] > 0 {
			return -int(u.pos[v.Index])
		}
	}
	return outside - int(s)
}

// mem returns memory m in unit form, as slot does a variable.
func (u *unitForm) mem(m int32) int {
	if m >= 0 && int(m) < len(u.p.Mems) {
		if i := u.p.Mems[m].Var.Index; i < len(u.pos) && u.pos[i] > 0 {
			return -int(u.pos[i])
		}
	}
	return outside - int(m)
}

// unitBatch is how many encoded bytes a unit's digest gathers between
// writes: a unit is a few dozen instructions.
const unitBatch = 256

// digest hashes unit u in its unit form into out, reusing h.
func (h *hasher) digest(u *unitForm, out *[sha256.Size]byte) {
	p := u.p
	for j := len(u.vars) - 1; j >= 0; j-- {
		u.pos[u.vars[j]>>1] = int32(j + 1)
	}
	h.sum.Reset()
	h.ints(u.codeEnd - u.code)
	for pc := u.code; pc < u.codeEnd; pc++ {
		op := &p.Code[pc]
		dst, target, aux := int(op.Dst), int(op.Target), int(op.Aux)
		if hasDst(op.Kind) {
			dst = u.slot(op.Dst)
		}
		switch op.Kind {
		case OpJump, OpJz:
			target -= u.code
		case OpMemRead, OpMemWrite, OpMemWriteNB:
			aux = u.mem(op.Aux)
		case OpDisplay:
			aux -= u.tasks
		}
		h.room()
		h.put(int(op.Kind))
		h.put(dst)
		h.put(int(op.Width))
		h.put(int(op.Hi))
		h.put(int(op.Lo))
		h.put(int(op.N))
		h.put(target)
		h.put(aux)
		h.put(int(B2U(op.Wide)))
		srcs := p.Srcs(op)
		h.put(len(srcs))
		for _, s := range srcs {
			h.put(u.slot(s))
		}
		h.vec(p.Const(op))
	}
	h.ints(u.tempsEnd - u.temps)
	for _, s := range p.Slots[u.temps:u.tempsEnd] {
		h.room()
		h.put(s.Width)
		h.put(int(B2U(s.Wide)))
		if s.Var != nil {
			h.str(s.Var.Name)
		} else {
			h.put(-1)
		}
	}
	h.ints(u.tasksEnd - u.tasks)
	for _, t := range p.Tasks[u.tasks:u.tasksEnd] {
		h.room()
		h.put(int(t.Src.Kind))
		h.put(int(B2U(t.Monitor)))
		h.str(t.Src.Format)
	}
	h.flush()
	h.sum.Sum(out[:0])
	for _, e := range u.vars {
		u.pos[e>>1] = 0
	}
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
