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
// source item is the same object as one of base's, every variable of which
// it names has the same name, width, reg-ness, array bounds and direction
// here, elaborates to what it did in base — the AST is immutable — so its
// elaboration is copied out of base instead (relocated; Flat.Relocated
// counts them), and the rest is elaborated. The copy gets this flat's
// variables: Var.Index is a position, and an edit moves most of them. A
// relocated assign, process or initial block keeps base's unit identity,
// an elaborated one gets a new one: this is the one decision of what an
// eval left unchanged, and synthesis (netlist.CompileFrom) follows it. The
// result is the Flat Elaborate returns, error or not, up to identities.
func ElaborateFrom(base *Flat, mod *verilog.Module, instName string, params map[string]*bits.Vector) (*Flat, error) {
	consts := map[string]*bits.Vector{} // the parameters: the flat's record of them is the elaborator's scope
	nvars, nassigns, nprocs := len(mod.Ports), 0, 0
	for _, it := range mod.Items {
		switch x := it.(type) {
		case *verilog.NetDecl:
			nvars += len(x.Names)
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
		vars:     make([]Var, nvars),
		base:     base,
	}
	if err := e.run(mod, params); err != nil {
		return nil, err
	}
	return e.flat, nil
}

type elaborator struct {
	flat     *Flat
	consts   map[string]*bits.Vector // parameters and localparams
	loopVars map[string]*bits.Vector // active for-loop bindings
	vars     []Var                   // declare's supply, one per port and declared name
	driven   []bool                  // by Var.Index: has a continuous driver
	widths   map[*verilog.Range]int  // rangeWidth's results (one scope per elaboration)

	base  *Flat       // what ElaborateFrom relocates from (nil: none)
	reloc *relocation // set once the parameters are known to extend base's

	// naming counts the variables the unit being elaborated names
	// (lookup): see settle.
	naming  bool
	lookups int

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
		v, err := e.declare(pt.Name, w, pt.Kind == verilog.Reg, 0, 0, init, pt.PortPos)
		if err != nil {
			return err
		}
		if pt.Dir == verilog.Input {
			v.IsInput = true
		} else {
			v.IsOutput = true
		}
	}

	// First pass: declarations (so later items can reference later decls
	// is NOT allowed in our model — Verilog requires declaration before
	// use for implicit clarity; we do a decl pre-pass to be permissive,
	// matching common tool behaviour).
	for _, it := range mod.Items {
		if x, ok := it.(*verilog.NetDecl); ok {
			if err := e.netDecl(x); err != nil {
				return err
			}
		}
	}
	e.driven = make([]bool, len(e.flat.Vars))

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
			e.begin()
			body, err := e.stmt(x.Body)
			if err != nil {
				return err
			}
			e.settle(x, refsInStmt(body))
			if body != nil {
				e.flat.Initials = append(e.flat.Initials, body)
				e.flat.InitialItems = append(e.flat.InitialItems, x)
				e.flat.InitialUnits = append(e.flat.InitialUnits, newUnit())
			}
		case *verilog.Instance:
			return e.errf(x.InstPos, "internal: instance %s survived IR flattening", x.Name)
		default:
			return e.errf(it.Pos(), "unsupported module item %T", it)
		}
	}
	e.flat.refreshPortLists()
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

// begin starts counting the variables the next unit names.
func (e *elaborator) begin() { e.naming, e.lookups = true, 0 }

// settle ends the unit elaborated from src, whose elaboration refers to
// variables refs times. Each reference is one name the unit resolved
// (lookup), so if some name left no reference — folded away, a loop
// variable unrolled into constants — the unit is opaque: its elaboration
// does not show every variable whose shape it depends on, and relocation,
// which checks the variables it shows, leaves it alone.
func (e *elaborator) settle(src verilog.Item, refs int) {
	e.naming = false
	if refs != e.lookups {
		if e.flat.opaque == nil {
			e.flat.opaque = map[verilog.Item]bool{}
		}
		e.flat.opaque[src] = true
	}
}

// lookup resolves a name to a variable of this module (nil: none),
// counting it as one the unit being elaborated names.
func (e *elaborator) lookup(name string) *Var {
	v := e.flat.VarNamed(name)
	if v != nil {
		e.note()
	}
	return v
}

// note counts a variable the unit being elaborated names.
func (e *elaborator) note() {
	if e.naming {
		e.lookups++
	}
}

func (e *elaborator) declare(name string, width int, isReg bool, arrLen, arrLo int, init *bits.Vector, pos verilog.Pos) (*Var, error) {
	// One hash: a refused declaration fails the whole elaboration, so the
	// entry a duplicate overwrites is never read.
	n := len(e.flat.VarIndex)
	if e.flat.VarIndex[name] = len(e.flat.Vars); len(e.flat.VarIndex) == n {
		return nil, e.errf(pos, "duplicate declaration of %s", name)
	}
	if _, dup := e.consts[name]; dup {
		return nil, e.errf(pos, "%s is already declared as a parameter", name)
	}
	if width < 1 {
		return nil, e.errf(pos, "%s has non-positive width %d", name, width)
	}
	v := &alloc(&e.vars, 1)[0]
	*v = Var{
		Name: name, Index: len(e.flat.Vars), Width: width, IsReg: isReg,
		ArrayLen: arrLen, ArrayLo: arrLo, Init: init,
	}
	e.flat.Vars = append(e.flat.Vars, v)
	return v, nil
}

// finishPorts records input/output lists after all declarations exist.
func (f *Flat) refreshPortLists() {
	f.Inputs = f.Inputs[:0]
	f.Outputs = f.Outputs[:0]
	for _, v := range f.Vars {
		if v.IsInput {
			f.Inputs = append(f.Inputs, v)
		}
		if v.IsOutput {
			f.Outputs = append(f.Outputs, v)
		}
	}
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
		if _, err := e.declare(dn.Name, width, isReg, arrLen, arrLo, init, dn.NamePos); err != nil {
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
	e.begin()
	lhs, err := e.lvalue(a.LHS)
	if err != nil {
		return err
	}
	total := 0
	for _, lv := range lhs {
		if lv.Var.IsReg {
			return e.errf(a.AssignPos, "continuous assignment to reg %s (use an always block)", lv.Var.Name)
		}
		if lv.Var.IsInput {
			return e.errf(a.AssignPos, "continuous assignment to input port %s", lv.Var.Name)
		}
		if err := e.checkAssignOverlap(lv, a.AssignPos); err != nil {
			return err
		}
		total += lv.TargetWidth()
	}
	rhs, err := e.expr(a.RHS)
	if err != nil {
		return err
	}
	widenContext(rhs, total)
	e.flat.Assigns = append(e.flat.Assigns, &ContAssign{LHS: lhs, RHS: rhs, Src: src, Ord: ord, Unit: newUnit()})
	e.settle(src, refsInLValues(lhs)+refsIn(rhs))
	return nil
}

// checkAssignOverlap rejects a second continuous driver for a wire.
// Multiple drivers would race, and the synthesizer requires a single
// combinational writer per variable, so the rule is enforced here where
// the REPL's trial build can report it before integration.
func (e *elaborator) checkAssignOverlap(lv LValue, pos verilog.Pos) error {
	if e.driven[lv.Var.Index] {
		return e.errf(pos, "%s is driven by more than one continuous assignment", lv.Var.Name)
	}
	e.driven[lv.Var.Index] = true
	return nil
}

func (e *elaborator) always(a *verilog.AlwaysBlock) error {
	e.begin()
	p := &Proc{Star: a.Star, Src: a, Unit: newUnit()}
	for _, ev := range a.Events {
		x, err := e.expr(ev.Expr)
		if err != nil {
			return err
		}
		v := rootVar(x)
		if v == nil {
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
	p.Reads = readSet(body)
	e.settle(a, len(p.Edges)+refsInStmt(body))
	// Validate driver classes: edge-triggered procs write regs (checked at
	// assignment resolution); here only note the proc drives its targets.
	e.flat.Procs = append(e.flat.Procs, p)
	return nil
}

// rootVar extracts the underlying variable of a simple signal expression.
func rootVar(x Expr) *Var {
	switch t := x.(type) {
	case *VarRef:
		return t.V
	case *Slice:
		return rootVar(t.X)
	case *BitSel:
		return rootVar(t.X)
	}
	return nil
}

// readSet collects the distinct variables read anywhere in s.
func readSet(s Stmt) []*Var {
	seen := map[*Var]bool{}
	var out []*Var
	WalkStmt(s, nil, func(x Expr) {
		var v *Var
		switch t := x.(type) {
		case *VarRef:
			v = t.V
		case *ArrayRef:
			v = t.V
		}
		if v != nil && !seen[v] {
			seen[v] = true
			out = append(out, v)
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
		if !lv.Var.IsReg {
			return nil, e.errf(x.AssignPos, "procedural assignment to wire %s (use assign)", lv.Var.Name)
		}
		total += lv.TargetWidth()
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
	lv := e.lookup(name)
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
		v := e.lookup(t.Name)
		if v == nil {
			return nil, e.errf(t.IdentPos, "assignment to undeclared variable %s", t.Name)
		}
		if v.IsArray() {
			return nil, e.errf(t.IdentPos, "memory %s must be assigned one word at a time", t.Name)
		}
		return []LValue{{Var: v}}, nil
	case *verilog.Index:
		base, ok := t.X.(*verilog.Ident)
		if !ok {
			return nil, e.errf(t.LPos, "assignment target must be a simple variable select")
		}
		v := e.lookup(base.Name)
		if v == nil {
			return nil, e.errf(t.LPos, "assignment to undeclared variable %s", base.Name)
		}
		idx, err := e.expr(t.Idx)
		if err != nil {
			return nil, err
		}
		if v.IsArray() {
			return []LValue{{Var: v, ArrIndex: e.adjustArrayIndex(v, idx)}}, nil
		}
		if c, ok := idx.(*Const); ok {
			bit := int(c.V.Uint64())
			return []LValue{{Var: v, HasRange: true, Hi: bit, Lo: bit}}, nil
		}
		return []LValue{{Var: v, DynBit: idx}}, nil
	case *verilog.RangeSel:
		base, ok := t.X.(*verilog.Ident)
		if !ok {
			return nil, e.errf(t.LPos, "assignment target must be a simple variable select")
		}
		v := e.lookup(base.Name)
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
		return []LValue{{Var: v, HasRange: true, Hi: h, Lo: l}}, nil
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
