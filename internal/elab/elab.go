package elab

import (
	"fmt"

	"cascade/internal/bits"
	"cascade/internal/verilog"
)

// maxUnroll caps for-loop unrolling so a runaway loop bound fails fast.
const maxUnroll = 1 << 16

// Elaborate lowers a flat module (no instances, no hierarchical
// references; Cascade's IR pass guarantees both) into a Flat subprogram.
// params supplies final parameter overrides (already evaluated by the
// caller); unknown names are an error.
func Elaborate(mod *verilog.Module, instName string, params map[string]*bits.Vector) (*Flat, error) {
	return ElaborateFrom(nil, mod, instName, params)
}

// ElaborateFrom is Elaborate for a module that shares item objects with
// the one base was elaborated from (nil: none; base is only read). While
// every parameter base bound has the same value (Extends), a unit whose
// source item is the same object as one of base's, and every variable of
// whose frame has a variable of the same name and shape here, elaborates
// to what it did in base — the AST is immutable, and the frame holds every
// name the unit resolved (elaborator.intern) — so it is relocated
// (Flat.Relocated counts them): it shares base's trees by pointer, with a
// frame of this flat's variables, and keeps base's unit identity; the
// rest is elaborated, with new identities. This is the one decision of
// what an eval left unchanged, and synthesis (netlist.CompileFrom)
// follows it. Var.Index stays a position in this flat; the trees do not
// name it. The result is the Flat Elaborate returns, error or not, up to
// identities.
//
// What is unchanged is shared, not copied: the variables up to the first
// that is not base's at the same position (the shared prefix) are base's
// records, and a relocated unit whose frame names only those is base's
// record, frame and all. What a later version may share of a prefix that
// ends early gets an allocation of its own (alone); the rest only a
// version whose prefix is every variable of this one shares.
func ElaborateFrom(base *Flat, mod *verilog.Module, instName string, params map[string]*bits.Vector) (*Flat, error) {
	consts := map[string]*bits.Vector{} // the parameters: the flat's record of them is the elaborator's scope
	nvars, nassigns, nprocs := len(mod.Ports), 0, 0
	for _, it := range mod.Items {
		switch x := it.(type) {
		case *verilog.NetDecl:
			nvars += len(x.Names)
			for _, dn := range x.Names {
				if dn.Init != nil && x.Kind == verilog.Wire {
					nassigns++ // a net declaration assignment
				}
			}
		case *verilog.ContAssign:
			nassigns++
		case *verilog.AlwaysBlock:
			nprocs++
		}
	}
	e := &elaborator{
		flat: &Flat{
			Name:     instName,
			ModName:  mod.Name,
			Params:   consts,
			Vars:     make([]*Var, 0, nvars),
			VarIndex: make(map[string]int, nvars),
			Assigns:  make([]*ContAssign, 0, nassigns),
			Procs:    make([]*Proc, 0, nprocs),
			Source:   mod,
		},
		consts:   consts,
		loopVars: map[string]*bits.Vector{},
		frame:    make([]*Var, 0, 16),
		module:   &module{inFrame: make([]int32, nvars), base: base},
	}
	if err := e.run(mod, params); err != nil {
		return nil, err
	}
	e.flat.Layout()
	return e.flat, nil
}

type elaborator struct {
	flat     *Flat
	consts   map[string]*bits.Vector // parameters and localparams
	loopVars map[string]*bits.Vector // active for-loop bindings
	widths   map[*verilog.Range]int  // rangeWidth's results (one scope per elaboration)
	frame    []*Var                  // the frame of the unit being elaborated (intern)
	*module                          // nil in a constant scope (constScope), which names no variable
}

// module is what elaborating a module's items takes beyond a constant
// scope.
type module struct {
	driven  []bool  // by Var.Index: has a continuous driver
	inFrame []int32 // by Var.Index: 1 + its index in frame, 0 if absent

	// What is not owned is cut from these slabs.
	vars    []Var
	assigns []ContAssign
	procs   []Proc
	frames  []*Var

	base  *Flat       // what ElaborateFrom relocates from (nil: none)
	reloc *relocation // set once the parameters are known to extend base's

	netInitAssigns []netInit // wire x = expr desugarings
}

// netInit is a net declaration assignment, sugar for a continuous
// assignment: the Ord-th name of declaration Src.
type netInit struct {
	src *verilog.NetDecl
	ord int
}

// assign is the continuous assignment the net declaration assignment
// stands for.
func (ni netInit) assign() *verilog.ContAssign {
	dn := ni.src.Names[ni.ord]
	return &verilog.ContAssign{
		AssignPos: dn.NamePos,
		LHS:       &verilog.Ident{IdentPos: dn.NamePos, Name: dn.Name},
		RHS:       dn.Init,
	}
}

func (e *elaborator) errf(pos verilog.Pos, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func (e *elaborator) run(mod *verilog.Module, overrides map[string]*bits.Vector) error {
	if err := e.params(mod, overrides); err != nil {
		return err
	}
	if e.base != nil && Extends(e.base.Params, e.consts) {
		e.reloc = newRelocation(e.base, e.flat)
	}

	// Ports become variables first, in header order.
	for _, pt := range mod.Ports {
		if pt.Dir == verilog.Inout {
			return e.errf(pt.PortPos, "inout ports are not supported")
		}
		w := 1
		if pt.Range != nil {
			var err error
			w, err = e.rangeWidth(pt.Range, pt.PortPos)
			if err != nil {
				return err
			}
		}
		var init *bits.Vector
		if pt.Init != nil {
			var err error
			if init, err = e.constExprIn(pt.Init, w); err != nil {
				return err
			}
		}
		in := pt.Dir == verilog.Input
		if err := e.declare(Var{Name: pt.Name, Width: w, IsReg: pt.Kind == verilog.Reg, Init: init, IsInput: in, IsOutput: !in}, pt.PortPos); err != nil {
			return err
		}
	}

	// First pass: declarations, so that an item may name a variable
	// declared after it, as common tools allow.
	for _, it := range mod.Items {
		if x, ok := it.(*verilog.NetDecl); ok {
			if err := e.netDecl(x); err != nil {
				return err
			}
		}
	}
	e.driven = make([]bool, len(e.flat.Vars))
	e.clearFrame() // what a declaration's constant expressions named
	e.flat.slab = min(alone, len(e.flat.Vars))
	if r := e.reloc; r != nil {
		if lo, hi := r.base.slab, r.shared; hi > lo && hi < len(r.base.Vars) {
			// The prefix ends before base's does: from base's slab on its
			// variables get records of their own, or they would keep base's
			// other slab-cut variables alive.
			r.shared = lo
			for i := lo; i < hi; i++ {
				p := &cut(e, &e.vars, 1, i+1, hi-i)[0]
				*p, e.flat.Vars[i] = *e.flat.Vars[i], p
			}
		}
		e.flat.slab = min(r.shared+alone, len(e.flat.Vars))
		if r.shared > r.base.slab { // all of base's, slab-cut ones included
			e.flat.slab = r.base.slab
		}
	}
	for _, v := range e.flat.Vars[:len(mod.Ports)] {
		if v.IsInput {
			e.flat.Inputs = append(e.flat.Inputs, v)
		} else {
			e.flat.Outputs = append(e.flat.Outputs, v)
		}
	}

	// Net declaration assignments collected by the first pass.
	for _, ni := range e.netInitAssigns {
		if ok, err := e.relocateAssign(ni.src, ni.ord, ni.src.Names[ni.ord].NamePos); err != nil {
			return err
		} else if !ok {
			if err := e.contAssign(ni.assign(), ni.src, ni.ord); err != nil {
				return err
			}
		}
	}

	// Second pass: behaviour.
	for _, it := range mod.Items {
		switch x := it.(type) {
		case *verilog.ParamDecl, *verilog.NetDecl:
			// handled above
		case *verilog.ContAssign:
			if ok, err := e.relocateAssign(x, 0, x.AssignPos); err != nil {
				return err
			} else if !ok {
				if err := e.contAssign(x, x, 0); err != nil {
					return err
				}
			}
		case *verilog.AlwaysBlock:
			if e.relocateProc(x) {
				continue
			}
			if err := e.always(x); err != nil {
				return err
			}
		case *verilog.InitialBlock:
			if e.relocateInitial(x) {
				continue
			}
			body, err := e.stmt(x.Body)
			if err != nil {
				return err
			}
			if fr := e.frameDone(); body != nil {
				e.addInitial(body, x, newUnit(), fr)
			}
		case *verilog.Instance:
			return e.errf(x.InstPos, "internal: instance %s survived IR flattening", x.Name)
		default:
			return e.errf(it.Pos(), "unsupported module item %T", it)
		}
	}
	return nil
}

// params evaluates mod's parameters into e.consts: the header's in
// declaration order with overrides applied (already evaluated by the
// caller; naming an undeclared one is an error), then the body's
// parameters and localparams. A ranged parameter's value is computed in the
// context of its range (constExprIn).
func (e *elaborator) params(mod *verilog.Module, overrides map[string]*bits.Vector) error {
	bind := func(pd *verilog.ParamDecl, ov *bits.Vector) error {
		if _, dup := e.consts[pd.Name]; dup {
			return e.errf(pd.DeclPos, "duplicate parameter %s", pd.Name)
		}
		w := 0
		if pd.Range != nil {
			var err error
			if w, err = e.rangeWidth(pd.Range, pd.DeclPos); err != nil {
				return err
			}
		}
		v := ov
		if v == nil {
			var err error
			if v, err = e.constExprIn(pd.Value, w); err != nil {
				return err
			}
		} else if w > 0 {
			v = v.Resize(w)
		}
		e.consts[pd.Name] = v
		return nil
	}
	for _, pd := range mod.Params {
		if err := bind(pd, overrides[pd.Name]); err != nil {
			return err
		}
	}
	for name := range overrides {
		if _, declared := e.consts[name]; !declared {
			return e.errf(mod.NamePos, "module %s has no parameter %s", mod.Name, name)
		}
	}
	for _, it := range mod.Items {
		if pd, ok := it.(*verilog.ParamDecl); ok {
			if err := bind(pd, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// intern resolves a name to a variable of this module (nil: none) and
// its index in the frame of the unit being elaborated, entering it there
// on its first resolution. Every name a unit resolves goes through here,
// whether or not its tree keeps a node for it (a fold may drop one, a
// loop variable unrolls into constants), so the frame holds every
// variable whose shape the unit's elaboration depends on — what
// relocation checks.
func (e *elaborator) intern(name string) (*Var, int32) {
	v := e.flat.VarNamed(name)
	if v == nil {
		return nil, -1
	}
	if at := e.inFrame[v.Index]; at > 0 {
		return v, at - 1
	}
	e.frame = append(e.frame, v)
	e.inFrame[v.Index] = int32(len(e.frame))
	return v, int32(len(e.frame) - 1)
}

// frameDone ends the unit being elaborated and returns its frame.
func (e *elaborator) frameDone() []*Var {
	fr := e.newFrame(e.frame)
	e.clearFrame()
	return fr
}

// clearFrame empties the frame being built.
func (e *elaborator) clearFrame() {
	for _, v := range e.frame {
		e.inFrame[v.Index] = 0
	}
	e.frame = e.frame[:0]
}

// alone is how many variables past the shared prefix get allocations of
// their own, and so do the frames and unit records that name no later
// one: what a later version's shared prefix may take, when its edit
// inserts a few variables after this one's. The rest is cut from slabs,
// which a later version shares only whole, with every variable of this
// one (relocation.shares): a shared record never keeps a dead sibling
// alive.
const alone = 64

// owned reports whether what names no variable from end on gets an
// allocation of its own (alone).
func (e *elaborator) owned(end int) bool {
	if r := e.reloc; r != nil {
		end -= r.shared
	}
	return end <= alone
}

// end is 1 + the largest index of fr's variables (0: none).
func end(fr []*Var) int {
	n := 0
	for _, v := range fr {
		n = max(n, v.Index+1)
	}
	return n
}

// cut returns n zeroed elements for what names no variable from end on:
// owned, or cut from *slab, which runs out into one of refill elements.
func cut[T any](e *elaborator, slab *[]T, n, end, refill int) []T {
	if e.owned(end) {
		return make([]T, n)
	}
	if len(*slab) < n {
		*slab = make([]T, max(n, refill))
	}
	out := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return out
}

// newFrame copies fr into a frame of exactly its length (nil: empty).
func (e *elaborator) newFrame(fr []*Var) []*Var {
	if len(fr) == 0 {
		return nil
	}
	out := cut(e, &e.frames, len(fr), end(fr), 256)
	copy(out, fr)
	return out
}

// record returns a record holding x, which names no variable from end
// on, cut from *slab unless owned; a slab holds as many as are left to
// add to list.
func record[T, E any](e *elaborator, slab *[]T, x T, end int, list []E) *T {
	p := &cut(e, slab, 1, end, cap(list)-len(list))[0]
	*p = x
	return p
}

// addInitial adds an initial block's elaboration to the flat.
func (e *elaborator) addInitial(body Stmt, src verilog.Item, unit uint64, fr []*Var) {
	f := e.flat
	f.Initials = append(f.Initials, body)
	f.InitialItems = append(f.InitialItems, src)
	f.InitialUnits = append(f.InitialUnits, unit)
	f.InitialFrames = append(f.InitialFrames, fr)
}

// declare adds the variable v describes, at the next position, to the
// flat: base's record while every variable before it is base's and base's
// at this position equals v (relocation.shares), else a record of its
// own.
func (e *elaborator) declare(v Var, pos verilog.Pos) error {
	f, r := e.flat, e.reloc
	v.Index = len(f.Vars)
	// One hash: a refused declaration fails the whole elaboration, so the
	// entry a duplicate overwrites is never read.
	n := len(f.VarIndex)
	if f.VarIndex[v.Name] = v.Index; len(f.VarIndex) == n {
		return e.errf(pos, "duplicate declaration of %s", v.Name)
	}
	if _, dup := e.consts[v.Name]; dup {
		return e.errf(pos, "%s is already declared as a parameter", v.Name)
	}
	if v.Width < 1 {
		return e.errf(pos, "%s has non-positive width %d", v.Name, v.Width)
	}
	if r.shares(v) {
		f.Vars, r.shared = append(f.Vars, r.base.Vars[v.Index]), r.shared+1
	} else {
		f.Vars = append(f.Vars, record(e, &e.vars, v, v.Index+1, f.Vars))
	}
	return nil
}

func (e *elaborator) rangeWidth(r *verilog.Range, pos verilog.Pos) (int, error) {
	if w, ok := e.widths[r]; ok {
		return w, nil
	}
	hi, err := e.constExpr(r.Hi)
	if err != nil {
		return 0, err
	}
	lo, err := e.constExpr(r.Lo)
	if err != nil {
		return 0, err
	}
	h, l := int(hi.Uint64()), int(lo.Uint64())
	if l != 0 {
		return 0, e.errf(pos, "packed ranges must be [N:0], got [%d:%d]", h, l)
	}
	if h < l || h > 1<<20 {
		return 0, e.errf(pos, "invalid range [%d:%d]", h, l)
	}
	if e.widths == nil {
		e.widths = map[*verilog.Range]int{}
	}
	e.widths[r] = h - l + 1
	return h - l + 1, nil
}

func (e *elaborator) netDecl(d *verilog.NetDecl) error {
	if ok, err := e.relocateDecl(d); ok || err != nil {
		return err
	}
	width := 1
	if d.Kind == verilog.Integer {
		width = 32
	} else if d.Range != nil {
		w, err := e.rangeWidth(d.Range, d.DeclPos)
		if err != nil {
			return err
		}
		width = w
	}
	isReg := d.Kind != verilog.Wire
	for ord, dn := range d.Names {
		arrLen, arrLo := 0, 0
		if dn.Array != nil {
			hi, err := e.constExpr(dn.Array.Hi)
			if err != nil {
				return err
			}
			lo, err := e.constExpr(dn.Array.Lo)
			if err != nil {
				return err
			}
			h, l := int(hi.Uint64()), int(lo.Uint64())
			if h < l {
				h, l = l, h
			}
			arrLen, arrLo = h-l+1, l
			if arrLen > 1<<22 {
				return e.errf(dn.NamePos, "memory %s too large (%d words)", dn.Name, arrLen)
			}
		}
		var init *bits.Vector
		if dn.Init != nil {
			if arrLen > 0 {
				return e.errf(dn.NamePos, "memory %s cannot have an initializer", dn.Name)
			}
			if isReg {
				var err error
				if init, err = e.constExprIn(dn.Init, width); err != nil {
					return err
				}
			}
		}
		if err := e.declare(Var{Name: dn.Name, Width: width, IsReg: isReg, ArrayLen: arrLen, ArrayLo: arrLo, Init: init}, dn.NamePos); err != nil {
			return err
		}
		if dn.Init != nil && !isReg {
			// A net declaration assignment (wire x = expr) is sugar for
			// a continuous assignment; queue it for the behaviour pass.
			e.netInitAssigns = append(e.netInitAssigns, netInit{src: d, ord: ord})
		}
	}
	return nil
}

func (e *elaborator) contAssign(a *verilog.ContAssign, src verilog.Item, ord int) error {
	lhs, err := e.lvalue(a.LHS)
	if err != nil {
		return err
	}
	total := 0
	for _, lv := range lhs {
		v := e.frame[lv.Var]
		if v.IsReg {
			return e.errf(a.AssignPos, "continuous assignment to reg %s (use an always block)", v.Name)
		}
		if v.IsInput {
			return e.errf(a.AssignPos, "continuous assignment to input port %s", v.Name)
		}
		if err := e.checkAssignOverlap(v, a.AssignPos); err != nil {
			return err
		}
		total += lv.TargetWidth(e.frame)
	}
	rhs, err := e.expr(a.RHS)
	if err != nil {
		return err
	}
	widenContext(rhs, total)
	fr := e.frameDone()
	e.flat.Assigns = append(e.flat.Assigns, record(e, &e.assigns, ContAssign{LHS: lhs, RHS: rhs, Frame: fr, Src: src, Ord: ord, Unit: newUnit()}, end(fr), e.flat.Assigns))
	return nil
}

// checkAssignOverlap rejects a second continuous driver for a wire.
// Multiple drivers would race, and the synthesizer requires a single
// combinational writer per variable, so the rule is enforced here where
// the REPL's trial build can report it before integration.
func (e *elaborator) checkAssignOverlap(v *Var, pos verilog.Pos) error {
	if e.driven[v.Index] {
		return e.errf(pos, "%s is driven by more than one continuous assignment", v.Name)
	}
	e.driven[v.Index] = true
	return nil
}

func (e *elaborator) always(a *verilog.AlwaysBlock) error {
	p := Proc{Star: a.Star, Src: a, Unit: newUnit()}
	for _, ev := range a.Events {
		x, err := e.expr(ev.Expr)
		if err != nil {
			return err
		}
		v := rootVar(x)
		if v < 0 {
			return e.errf(a.AlwaysPos, "sensitivity-list entries must be simple signals")
		}
		kind := Level
		switch ev.Edge {
		case verilog.Posedge:
			kind = Pos
		case verilog.Negedge:
			kind = Neg
		}
		p.Edges = append(p.Edges, Edge{Kind: kind, Var: v})
	}
	body, err := e.stmt(a.Body)
	if err != nil {
		return err
	}
	p.Body = body
	p.Reads = readSet(body, len(e.frame))
	p.Frame = e.frameDone()
	// Validate driver classes: edge-triggered procs write regs (checked at
	// assignment resolution); here only note the proc drives its targets.
	e.flat.Procs = append(e.flat.Procs, record(e, &e.procs, p, end(p.Frame), e.flat.Procs))
	return nil
}

// rootVar extracts the frame index of the underlying variable of a
// simple signal expression (-1: none).
func rootVar(x Expr) int32 {
	switch t := x.(type) {
	case *VarRef:
		return t.Var
	case *Slice:
		return rootVar(t.X)
	case *BitSel:
		return rootVar(t.X)
	}
	return -1
}

// readSet collects the distinct variables read anywhere in s, whose
// unit's frame has n entries, in order of first read.
func readSet(s Stmt, n int) []int32 {
	seen := make([]bool, n)
	var out []int32
	WalkStmt(s, nil, func(x Expr) {
		i := int32(-1)
		switch t := x.(type) {
		case *VarRef:
			i = t.Var
		case *ArrayRef:
			i = t.Var
		}
		if i >= 0 && !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	})
	return out
}

func (e *elaborator) stmt(s verilog.Stmt) (Stmt, error) {
	switch x := s.(type) {
	case *verilog.Block:
		b := &Block{}
		for _, st := range x.Stmts {
			rs, err := e.stmt(st)
			if err != nil {
				return nil, err
			}
			if rs != nil {
				b.Stmts = append(b.Stmts, rs)
			}
		}
		if len(b.Stmts) == 0 {
			return nil, nil
		}
		return b, nil
	case *verilog.If:
		cond, err := e.expr(x.Cond)
		if err != nil {
			return nil, err
		}
		// Statically decided branches are pruned (dead-code elimination
		// at the statement level; both backends benefit).
		if c, isConst := cond.(*Const); isConst {
			if c.V.Bool() {
				return e.stmt(x.Then)
			}
			if x.Else != nil {
				return e.stmt(x.Else)
			}
			return nil, nil
		}
		then, err := e.stmt(x.Then)
		if err != nil {
			return nil, err
		}
		var els Stmt
		if x.Else != nil {
			els, err = e.stmt(x.Else)
			if err != nil {
				return nil, err
			}
		}
		return &If{Cond: cond, Then: then, Else: els}, nil
	case *verilog.Case:
		return e.caseStmt(x)
	case *verilog.ProcAssign:
		return e.procAssign(x)
	case *verilog.For:
		return e.unrollFor(x)
	case *verilog.SysTask:
		return e.sysTask(x)
	case *verilog.NullStmt:
		return nil, nil
	}
	return nil, e.errf(s.Pos(), "unsupported statement %T", s)
}

func (e *elaborator) caseStmt(x *verilog.Case) (Stmt, error) {
	subj, err := e.expr(x.Subject)
	if err != nil {
		return nil, err
	}
	// labelMask extracts a casez wildcard mask from a label literal.
	labelMask := func(le verilog.Expr) (*bits.Vector, error) {
		n, isNum := le.(*verilog.Number)
		if !isNum || n.Mask == nil {
			return nil, nil
		}
		if !x.IsCasez {
			return nil, e.errf(n.NumPos, "wildcard label %s requires casez", n.Literal)
		}
		return n.Mask, nil
	}
	matches := func(labelVal, mask, subjVal *bits.Vector) bool {
		if mask == nil {
			return labelVal.Equal(subjVal)
		}
		return subjVal.Xor(labelVal).And(mask).IsZero()
	}
	// A constant subject with constant labels selects its arm statically.
	if cs, isConst := subj.(*Const); isConst {
		var deflt verilog.Stmt
		decidable := true
		var taken verilog.Stmt
		found := false
		for _, it := range x.Items {
			if it.Exprs == nil {
				deflt = it.Body
				continue
			}
			for _, le := range it.Exprs {
				l, lerr := e.expr(le)
				if lerr != nil {
					return nil, lerr
				}
				m, merr := labelMask(le)
				if merr != nil {
					return nil, merr
				}
				lc, lconst := l.(*Const)
				if !lconst {
					decidable = false
					break
				}
				if !found && matches(lc.V, m, cs.V) {
					taken = it.Body
					found = true
				}
			}
			if !decidable {
				break
			}
		}
		if decidable {
			if found {
				return e.stmt(taken)
			}
			if deflt != nil {
				return e.stmt(deflt)
			}
			return nil, nil
		}
	}
	c := &Case{Subject: subj}
	maxW := subj.Width()
	var allLabels []Expr
	for _, it := range x.Items {
		ci := &CaseItem{}
		for _, le := range it.Exprs {
			l, err := e.expr(le)
			if err != nil {
				return nil, err
			}
			m, merr := labelMask(le)
			if merr != nil {
				return nil, merr
			}
			if l.Width() > maxW {
				maxW = l.Width()
			}
			ci.Labels = append(ci.Labels, l)
			ci.Masks = append(ci.Masks, m)
			allLabels = append(allLabels, l)
		}
		body, err := e.stmt(it.Body)
		if err != nil {
			return nil, err
		}
		ci.Body = body
		c.Items = append(c.Items, ci)
	}
	widenContext(subj, maxW)
	for _, l := range allLabels {
		widenContext(l, maxW)
	}
	return c, nil
}

func (e *elaborator) procAssign(x *verilog.ProcAssign) (Stmt, error) {
	lhs, err := e.lvalue(x.LHS)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, lv := range lhs {
		if v := e.frame[lv.Var]; !v.IsReg {
			return nil, e.errf(x.AssignPos, "procedural assignment to wire %s (use assign)", v.Name)
		}
		total += lv.TargetWidth(e.frame)
	}
	rhs, err := e.expr(x.RHS)
	if err != nil {
		return nil, err
	}
	widenContext(rhs, total)
	return &Assign{Blocking: x.Blocking, LHS: lhs, RHS: rhs}, nil
}

func (e *elaborator) unrollFor(x *verilog.For) (Stmt, error) {
	ident, ok := x.Init.LHS.(*verilog.Ident)
	if !ok {
		return nil, e.errf(x.ForPos, "for-loop variable must be a simple identifier")
	}
	name := ident.Name
	lv, _ := e.intern(name)
	if lv == nil {
		return nil, e.errf(x.ForPos, "for-loop variable %s is not declared", name)
	}
	if _, active := e.loopVars[name]; active {
		return nil, e.errf(x.ForPos, "nested reuse of loop variable %s", name)
	}
	v, err := e.constExpr(x.Init.RHS)
	if err != nil {
		return nil, e.errf(x.ForPos, "for-loop bounds must be constant: %v", err)
	}
	v = v.Resize(lv.Width)
	b := &Block{}
	for iter := 0; ; iter++ {
		if iter > maxUnroll {
			return nil, e.errf(x.ForPos, "for loop exceeds %d iterations", maxUnroll)
		}
		e.loopVars[name] = v
		cond, err := e.constExpr(x.Cond)
		if err != nil {
			delete(e.loopVars, name)
			return nil, e.errf(x.ForPos, "for-loop condition must be constant: %v", err)
		}
		if !cond.Bool() {
			break
		}
		body, err := e.stmt(x.Body)
		if err != nil {
			delete(e.loopVars, name)
			return nil, err
		}
		if body != nil {
			b.Stmts = append(b.Stmts, body)
		}
		next, err := e.constExpr(x.Post.RHS)
		if err != nil {
			delete(e.loopVars, name)
			return nil, e.errf(x.ForPos, "for-loop step must be constant: %v", err)
		}
		if postIdent, ok := x.Post.LHS.(*verilog.Ident); !ok || postIdent.Name != name {
			delete(e.loopVars, name)
			return nil, e.errf(x.ForPos, "for-loop step must assign to %s", name)
		}
		v = next.Resize(lv.Width)
	}
	delete(e.loopVars, name)
	if len(b.Stmts) == 0 {
		return nil, nil
	}
	return b, nil
}

func (e *elaborator) sysTask(x *verilog.SysTask) (Stmt, error) {
	st := &SysTask{}
	switch x.Name {
	case "$display":
		st.Kind = TaskDisplay
	case "$write":
		st.Kind = TaskWrite
	case "$monitor":
		st.Kind = TaskMonitor
	case "$finish":
		st.Kind = TaskFinish
		if len(x.Args) > 1 {
			return nil, e.errf(x.TaskPos, "$finish takes at most one argument")
		}
		return st, nil
	default:
		return nil, e.errf(x.TaskPos, "unsupported system task %s", x.Name)
	}
	args := x.Args
	if len(args) > 0 {
		if s, ok := args[0].(*verilog.StringLit); ok {
			st.Format = s.Value
			args = args[1:]
		}
	}
	for _, a := range args {
		r, err := e.expr(a)
		if err != nil {
			return nil, err
		}
		st.Args = append(st.Args, r)
	}
	return st, nil
}

// lvalue resolves an assignment target, expanding concatenations.
func (e *elaborator) lvalue(x verilog.Expr) ([]LValue, error) {
	switch t := x.(type) {
	case *verilog.Concat:
		var out []LValue
		for _, p := range t.Parts {
			sub, err := e.lvalue(p)
			if err != nil {
				return nil, err
			}
			out = append(out, sub...)
		}
		return out, nil
	case *verilog.Ident:
		v, i := e.intern(t.Name)
		if v == nil {
			return nil, e.errf(t.IdentPos, "assignment to undeclared variable %s", t.Name)
		}
		if v.IsArray() {
			return nil, e.errf(t.IdentPos, "memory %s must be assigned one word at a time", t.Name)
		}
		return []LValue{{Var: i}}, nil
	case *verilog.Index:
		base, ok := t.X.(*verilog.Ident)
		if !ok {
			return nil, e.errf(t.LPos, "assignment target must be a simple variable select")
		}
		v, i := e.intern(base.Name)
		if v == nil {
			return nil, e.errf(t.LPos, "assignment to undeclared variable %s", base.Name)
		}
		idx, err := e.expr(t.Idx)
		if err != nil {
			return nil, err
		}
		if v.IsArray() {
			return []LValue{{Var: i, ArrIndex: e.adjustArrayIndex(v, idx)}}, nil
		}
		if c, ok := idx.(*Const); ok {
			bit := int(c.V.Uint64())
			return []LValue{{Var: i, HasRange: true, Hi: bit, Lo: bit}}, nil
		}
		return []LValue{{Var: i, DynBit: idx}}, nil
	case *verilog.RangeSel:
		base, ok := t.X.(*verilog.Ident)
		if !ok {
			return nil, e.errf(t.LPos, "assignment target must be a simple variable select")
		}
		v, i := e.intern(base.Name)
		if v == nil {
			return nil, e.errf(t.LPos, "assignment to undeclared variable %s", base.Name)
		}
		if v.IsArray() {
			return nil, e.errf(t.LPos, "part select on memory %s is not supported", v.Name)
		}
		hi, err := e.constExpr(t.Hi)
		if err != nil {
			return nil, err
		}
		lo, err := e.constExpr(t.Lo)
		if err != nil {
			return nil, err
		}
		h, l := int(hi.Uint64()), int(lo.Uint64())
		if h < l || h >= v.Width {
			return nil, e.errf(t.LPos, "part select [%d:%d] out of range for %s[%d:0]", h, l, v.Name, v.Width-1)
		}
		return []LValue{{Var: i, HasRange: true, Hi: h, Lo: l}}, nil
	case *verilog.HierIdent:
		return nil, e.errf(t.IdentPos, "internal: hierarchical target %v survived IR promotion", t.Parts)
	}
	return nil, e.errf(x.Pos(), "invalid assignment target %T", x)
}

// adjustArrayIndex rebases an index expression by the array's low bound.
func (e *elaborator) adjustArrayIndex(v *Var, idx Expr) Expr {
	if v.ArrayLo == 0 {
		return idx
	}
	w := idx.Width()
	if need := bits.MinWidthFor(uint64(v.ArrayLo + v.ArrayLen)); need > w {
		w = need
	}
	return &Binary{Op: verilog.BSub, X: idx, Y: &Const{V: bits.FromUint64(w, uint64(v.ArrayLo))}, W: w}
}
