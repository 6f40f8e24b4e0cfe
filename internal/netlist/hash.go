package netlist

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"

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
	// Integers are encoded by hand into one buffer and batched into the
	// hash: a netlist hashes thousands of them, and encoding/binary.Write
	// reflects on and allocates for each. The digest is pinned by
	// TestFingerprintGolden — on-disk bitstream stores are keyed by it.
	sum := sha256.New()
	h := bufio.NewWriter(sum)
	var buf [8]byte
	wlen := func(n int) { // string lengths and map sizes hash as 32 bits
		binary.LittleEndian.PutUint32(buf[:4], uint32(n))
		h.Write(buf[:4])
	}
	ws := func(s string) {
		wlen(len(s))
		h.WriteString(s)
	}
	wi := func(vs ...int) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	wvec := func(v *bv.Vector) {
		if v == nil {
			ws("<nil>")
			return
		}
		ws(v.String())
	}

	ws(p.Flat.Name) // %m output is part of observable behaviour

	wi(len(p.Code))
	for i := range p.Code {
		op := &p.Code[i]
		wi(int(op.Kind), op.Dst, op.Width, op.Hi, op.Lo, op.N, op.Target, op.Aux)
		wi(len(op.Srcs))
		wi(op.Srcs...)
		if op.Wide {
			wi(1)
		} else {
			wi(0)
		}
		wvec(op.Const)
	}

	wi(len(p.Slots))
	for _, s := range p.Slots {
		wi(s.Width)
		if s.Wide {
			wi(1)
		} else {
			wi(0)
		}
		if s.Var != nil {
			ws(s.Var.Name)
		} else {
			ws("")
		}
	}

	wi(len(p.VarSlot))
	wi(p.VarSlot...)
	wi(len(p.MemOf))
	wi(p.MemOf...)
	wi(len(p.Mems))
	for _, m := range p.Mems {
		ws(m.Var.Name)
		wi(m.Words, m.Width)
	}

	wi(len(p.Comb))
	for _, c := range p.Comb {
		wi(c.Entry)
	}
	wi(len(p.Seq))
	for _, sp := range p.Seq {
		wi(sp.Entry, len(sp.Edges))
		for _, e := range sp.Edges {
			wi(int(e.Kind), e.Var.Index)
		}
	}
	wi(len(p.Monitors))
	for _, m := range p.Monitors {
		wi(m.Entry)
	}
	wi(len(p.Tasks))
	for _, t := range p.Tasks {
		wi(int(t.Src.Kind))
		ws(t.Src.Format)
		if t.Monitor {
			wi(1)
		} else {
			wi(0)
		}
	}

	hashStateMap(wlen, ws, p.ResetState)
	// Reset memories, in sorted order for determinism.
	names := make([]string, 0, len(p.ResetMems))
	for n := range p.ResetMems {
		names = append(names, n)
	}
	sort.Strings(names)
	wi(len(names))
	for _, n := range names {
		ws(n)
		words := p.ResetMems[n]
		wi(len(words))
		for _, w := range words {
			wvec(w)
		}
	}

	h.Flush()
	return hex.EncodeToString(sum.Sum(nil))
}

func hashStateMap(wlen func(int), ws func(string), m map[string]*bv.Vector) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	wlen(len(names))
	for _, n := range names {
		ws(n)
		ws(m[n].String())
	}
}
