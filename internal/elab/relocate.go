package elab

import (
	"cascade/internal/bits"
	"cascade/internal/verilog"
)

// relocation takes units out of a base Flat into the one being
// elaborated (ElaborateFrom). It exists only while every parameter base
// bound has the same value (Extends): what a unit elaborates to is then
// decided by its source item — the same object, the AST is immutable —
// and by the shapes of the variables it resolved, which its frame holds
// (elaborator.intern). A relocated unit shares base's trees by pointer;
// only its frame is new, unless every variable of it is one of the shared
// prefix (elaborator.declare): then the unit is base's record.
//
// A unit is found in base by a cursor per kind: units come in the order
// of the items they were elaborated from, and a module's items are its
// base's in the same order, some removed and some inserted — an edit
// appends to the root, and the merged root declares each instance's
// variables where the instance is, then holds the subprograms' other items
// in the design's order — so the unit sought is the one at the cursor or
// a little further on (seek).
type relocation struct {
	base, here *Flat
	shared     int    // how many of base's leading variables are here's too
	vmap       []*Var // base variable index -> here's of that name (nil: not looked up yet; made on first use)

	decl, declVar              int // an index into base's items, and the first variable of the declarations from it on
	netInit, assign, proc, ini int // indexes into base's Assigns, Procs, Initials
}

// window bounds how many of base's units of a kind seek passes over: an
// edit that removed more than that in one place (a rebuilt subprogram's
// items in the merged root) leaves those after them to be elaborated,
// once.
const window = 64

// unusable marks, in vmap, a base variable with no variable of the same
// name and shape here.
var unusable = &Var{}

func newRelocation(base, here *Flat) *relocation {
	r := &relocation{base: base, here: here, declVar: len(base.Source.Ports)}
	for r.assign < len(base.Assigns) {
		if _, net := base.Assigns[r.assign].Src.(*verilog.NetDecl); !net {
			break
		}
		r.assign++
	}
	return r
}

// shares reports whether v, declared next, is base's variable at its
// position and every variable before it is base's (r nil: none is). An
// initial value is compared by value: a port's is computed afresh by each
// elaboration. A prefix that ends past base's slab but before its last
// variable is cut back to the slab once all are declared (run).
func (r *relocation) shares(v Var) bool {
	if r == nil || r.shared != v.Index || v.Index >= len(r.base.Vars) {
		return false
	}
	b := r.base.Vars[v.Index]
	return b.Name == v.Name && sameShape(b, &v) &&
		(b.Init == v.Init || b.Init != nil && v.Init != nil && b.Init.Width() == v.Init.Width() && b.Init.Equal(v.Init))
}

// seek looks for the unit that is(i) among base's n units of a kind from
// the cursor *at on, moving the cursor past it. A unit it does not find
// (-1) is new, and the cursor stays.
func seek(n int, at *int, is func(i int) bool) int {
	for i := *at; i < n && i < *at+window; i++ {
		if is(i) {
			*at = i + 1
			return i
		}
	}
	return -1
}

// seekDecl is seek for base's net declarations, which its items hold
// among others: it returns the index of d's first variable in base.
func (r *relocation) seekDecl(d *verilog.NetDecl) int {
	items, v := r.base.Source.Items, r.declVar
	for i, passed := r.decl, 0; i < len(items) && passed < window; i++ {
		nd, ok := items[i].(*verilog.NetDecl)
		if !ok {
			continue
		}
		if nd == d {
			r.decl, r.declVar = i+1, v+len(nd.Names)
			return v
		}
		v += len(nd.Names)
		passed++
	}
	return -1
}

// sameShape reports whether code elaborated against a may name b instead.
func sameShape(a, b *Var) bool {
	return a.Width == b.Width && a.IsReg == b.IsReg && a.ArrayLen == b.ArrayLen && a.ArrayLo == b.ArrayLo &&
		a.IsInput == b.IsInput && a.IsOutput == b.IsOutput
}

// Extends reports whether every parameter base bound is bound to the
// same value in here. A module only grows, so what base's items name is
// what they named in base: a parameter added since cannot be a name one of
// them uses — it would be the name of a variable, whose declaration
// declare then refuses. It is the one rule by which a parameter
// environment may stand for another (ir's split memos use it too, with
// equal lengths where they need equal environments).
func Extends(base, here map[string]*bits.Vector) bool {
	if len(base) > len(here) {
		return false
	}
	for name, v := range base {
		if w := here[name]; w == nil || w.Width() != v.Width() || !w.Equal(v) {
			return false
		}
	}
	return true
}

// relocateDecl declares d's names as base did, if base declared them:
// a declaration's widths, kinds, bounds and initial values are the
// declaration's and the parameters'. Only what can differ is checked
// again — a name another declaration of this module also claims.
func (e *elaborator) relocateDecl(d *verilog.NetDecl) (bool, error) {
	r := e.reloc
	if r == nil {
		return false, nil
	}
	first := r.seekDecl(d)
	if first < 0 {
		return false, nil
	}
	for ord, dn := range d.Names {
		bv := r.base.Vars[first+ord]
		if err := e.declare(*bv, dn.NamePos); err != nil {
			return false, err
		}
		if dn.Init != nil && !bv.IsReg {
			e.netInitAssigns = append(e.netInitAssigns, netInit{src: d, ord: ord})
		}
	}
	e.flat.Relocated++
	return true, nil
}

// baseAssign finds base's continuous assignment from src (a net
// declaration: its ord-th name's initializer).
func (r *relocation) baseAssign(src verilog.Item, ord int) *ContAssign {
	as := r.base.Assigns
	var i int
	if _, net := src.(*verilog.NetDecl); net {
		i = seek(len(as), &r.netInit, func(i int) bool { return as[i].Src == src && as[i].Ord == ord })
	} else {
		i = seek(len(as), &r.assign, func(i int) bool { return as[i].Src == src })
	}
	if i < 0 {
		return nil
	}
	return as[i]
}

// relocateAssign takes base's continuous assignment from src (ord: see
// baseAssign) when its key holds. Its targets still claim their drivers
// here: a second driver is refused at pos, as contAssign refuses it.
func (e *elaborator) relocateAssign(src verilog.Item, ord int, pos verilog.Pos) (bool, error) {
	r := e.reloc
	if r == nil {
		return false, nil
	}
	a := r.baseAssign(src, ord)
	if a == nil {
		return false, nil
	}
	fr, ok := e.frameFrom(a.Frame)
	if !ok {
		return false, nil
	}
	for _, lv := range a.LHS {
		if err := e.checkAssignOverlap(fr[lv.Var], pos); err != nil {
			return false, err
		}
	}
	if len(fr) > 0 && &fr[0] != &a.Frame[0] { // a frame of its own, so a record of its own
		a = record(e, &e.assigns, ContAssign{LHS: a.LHS, RHS: a.RHS, Frame: fr, Src: src, Ord: ord, Unit: a.Unit}, end(fr), e.flat.Assigns)
	}
	e.flat.Assigns = append(e.flat.Assigns, a)
	e.flat.Relocated++
	return true, nil
}

// relocateProc takes base's process from the always block x when its key
// holds.
func (e *elaborator) relocateProc(x *verilog.AlwaysBlock) bool {
	r := e.reloc
	if r == nil {
		return false
	}
	ps := r.base.Procs
	i := seek(len(ps), &r.proc, func(i int) bool { return ps[i].Src == x })
	if i < 0 {
		return false
	}
	p := ps[i]
	fr, ok := e.frameFrom(p.Frame)
	if !ok {
		return false
	}
	if len(fr) > 0 && &fr[0] != &p.Frame[0] { // a frame of its own, so a record of its own
		p = record(e, &e.procs, Proc{Edges: p.Edges, Star: p.Star, Body: p.Body, Reads: p.Reads, Frame: fr, Src: x, Unit: p.Unit}, end(fr), e.flat.Procs)
	}
	e.flat.Procs = append(e.flat.Procs, p)
	e.flat.Relocated++
	return true
}

// relocateInitial takes base's elaboration of the initial block x when
// its key holds.
func (e *elaborator) relocateInitial(x *verilog.InitialBlock) bool {
	r := e.reloc
	if r == nil {
		return false
	}
	items := r.base.InitialItems
	i := seek(len(items), &r.ini, func(i int) bool { return items[i] == x })
	if i < 0 {
		return false
	}
	fr, ok := e.frameFrom(r.base.InitialFrames[i])
	if !ok {
		return false
	}
	e.addInitial(r.base.Initials[i], x, r.base.InitialUnits[i], fr)
	e.flat.Relocated++
	return true
}

// frameFrom is the frame of a relocated unit whose frame in base is bfr:
// bfr itself if it names only shared variables — the unit is then base's
// record too —, else each variable's counterpart here, or false if one
// has none. It is built where the frame of the unit being elaborated is,
// between units.
func (e *elaborator) frameFrom(bfr []*Var) (fr []*Var, ok bool) {
	if end(bfr) <= e.reloc.shared {
		return bfr, true
	}
	for _, v := range bfr {
		nv := e.reloc.variable(v)
		if nv == nil {
			e.frame = e.frame[:0]
			return nil, false
		}
		e.frame = append(e.frame, nv)
	}
	fr, e.frame = e.newFrame(e.frame), e.frame[:0]
	return fr, true
}

// variable is here's counterpart of a variable a base unit names: itself
// if it is shared, else the variable of the same name, if it has the same
// shape (nil: none).
func (r *relocation) variable(v *Var) *Var {
	if v.Index < r.shared {
		return v
	}
	if r.vmap == nil {
		r.vmap = make([]*Var, len(r.base.Vars))
	}
	nv := r.vmap[v.Index]
	if nv == nil {
		nv = unusable
		if w := r.here.VarNamed(v.Name); w != nil && sameShape(v, w) {
			nv = w
		}
		r.vmap[v.Index] = nv
	}
	if nv == unusable {
		return nil
	}
	return nv
}
