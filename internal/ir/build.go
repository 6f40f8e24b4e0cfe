package ir

import (
	"slices"
	"strings"

	"cascade/internal/bits"
	"cascade/internal/elab"
	"cascade/internal/verilog"
)

// Build splits a program into the distributed-system IR: one subprogram
// per module instance, hierarchical references promoted to ports, and a
// wires table describing the data plane. reg supplies the standard
// library's module specs. The implicit root module is assembled from
// p.RootItems and rooted at RootPath.
func Build(p *Program, reg Registry) (*Design, error) { return BuildFrom(nil, p, reg) }

// BuildFrom is Build for a program that extends the one prev was built
// from (nil: none). Declared modules are immutable and a program only
// grows, so an instance that is again the same declaration at the same
// path, with the same resolved parameters and the same variables promoted
// to outputs by its parent (a later fragment reading e.acc changes e's
// ports) splits into what it did before: the design holds prev's own
// *SubProgram for it and for every instance below it, and their wires, in
// Build's order. The root is always split afresh. prev is only read.
func BuildFrom(prev *Design, p *Program, reg Registry) (*Design, error) {
	b := &builder{prog: p, reg: reg, design: &Design{}, ranges: map[int]*verilog.Range{}}
	if prev != nil {
		b.prev = make(map[string]*SubProgram, len(prev.Subs))
		for _, s := range prev.Subs {
			b.prev[s.Path] = s
		}
	}
	root := &verilog.Module{Name: RootPath, Items: p.RootItems}
	if err := b.split(root, RootPath, nil, nil); err != nil {
		return nil, err
	}
	return b.design, nil
}

type builder struct {
	prog   *Program
	reg    Registry
	design *Design
	prev   map[string]*SubProgram // the predecessor's subprograms, by path
	ranges map[int]*verilog.Range // the [w-1:0] literal of each promoted width
}

// reusable returns the predecessor's subprogram for the instance ci at
// path if it would split into the same thing again.
func (b *builder) reusable(path string, ci *childInst) *SubProgram {
	old := b.prev[path]
	if old == nil || old.src != ci.mod || len(old.env) != len(ci.params) || len(old.extra) != len(ci.extraOutputs) {
		return nil
	}
	for name, v := range ci.params {
		if o := old.env[name]; o == nil || o.Width() != v.Width() || !o.Equal(v) {
			return nil
		}
	}
	for name := range ci.extraOutputs {
		if !old.extra[name] {
			return nil
		}
	}
	return old
}

// childInst is a resolved instantiation inside one module.
type childInst struct {
	inst   *verilog.Instance
	std    *StdSpec                // nil for user modules
	mod    *verilog.Module         // nil for stdlib
	params map[string]*bits.Vector // resolved child parameter values
	header map[string]*bits.Vector // header-only subset (elab overrides)
	// promotion bookkeeping
	extraOutputs map[string]bool // child vars to promote to outputs
}

// split transforms one module instance into a subprogram, recursing into
// children.
func (b *builder) split(mod *verilog.Module, path string, overrides map[string]*bits.Vector, extraOutputs map[string]bool) error {
	env, headerEnv, err := paramEnv(mod, overrides)
	if err != nil {
		return err
	}
	firstWire := len(b.design.Wires)

	// Resolve instances.
	children := map[string]*childInst{}
	var childOrder []string
	var bodyItems []verilog.Item
	for _, it := range mod.Items {
		inst, ok := it.(*verilog.Instance)
		if !ok {
			bodyItems = append(bodyItems, it)
			continue
		}
		ci, err := b.resolveInstance(inst, env)
		if err != nil {
			return err
		}
		if _, dup := children[inst.Name]; dup {
			return errf(inst.InstPos, "duplicate instance name %s", inst.Name)
		}
		children[inst.Name] = ci
		childOrder = append(childOrder, inst.Name)
	}

	// Promotion plan: new ports on this module keyed by mangled name.
	type promo struct {
		dir   verilog.PortDir
		kind  verilog.NetKind
		width int
		init  verilog.Expr
	}
	promos := map[string]*promo{}
	var promoOrder []string
	addPromo := func(pos verilog.Pos, name string, pr *promo) error {
		if existing, dup := promos[name]; dup {
			if existing.dir != pr.dir {
				return errf(pos, "%s is driven from both sides of the module boundary", name)
			}
			if pr.kind == verilog.Reg {
				existing.kind = verilog.Reg
			}
			return nil
		}
		promos[name] = pr
		promoOrder = append(promoOrder, name)
		return nil
	}

	var addedAssigns []verilog.Item
	var prevConns map[*verilog.Instance][]*verilog.ContAssign
	var prevMangled map[verilog.Item]verilog.Item
	if old := b.prev[path]; old != nil {
		prevConns, prevMangled = old.conns, old.mangled
	}
	madeConns := make(map[*verilog.Instance][]*verilog.ContAssign, len(childOrder))
	// assign is the connection assignment lhs = rhs, the previous split's
	// object for connection i of inst when that was the same assignment.
	assign := func(inst *verilog.Instance, i int, pos verilog.Pos, lhs, rhs verilog.Expr) *verilog.ContAssign {
		if old := prevConns[inst]; i < len(old) && old[i] != nil && sameConnAssign(old[i], lhs, rhs) {
			return old[i]
		}
		return &verilog.ContAssign{AssignPos: pos, LHS: lhs, RHS: rhs}
	}

	// Connections become promoted ports plus assignments (Figure 4).
	for _, name := range childOrder {
		ci := children[name]
		conns, err := b.namedConns(ci)
		if err != nil {
			return err
		}
		made := make([]*verilog.ContAssign, len(conns))
		madeConns[ci.inst] = made
		for i, c := range conns {
			if c.Expr == nil {
				continue // explicitly unconnected
			}
			dir, width, kind, err := b.childPortInfo(ci, c.Name, c.ConnPos)
			if err != nil {
				return err
			}
			mangled := name + "__" + c.Name
			switch dir {
			case verilog.Input:
				// Parent drives the child input: output port + assign.
				if err := addPromo(c.ConnPos, mangled, &promo{dir: verilog.Output, kind: verilog.Wire, width: width}); err != nil {
					return err
				}
				made[i] = assign(ci.inst, i, c.ConnPos, &verilog.Ident{IdentPos: c.ConnPos, Name: mangled}, c.Expr)
				addedAssigns = append(addedAssigns, made[i])
				b.design.Wires = append(b.design.Wires, Wire{
					From: Endpoint{Sub: path, Port: mangled},
					To:   Endpoint{Sub: path + "." + name, Port: c.Name},
				})
			case verilog.Output:
				// Child drives a parent lvalue: input port + assign.
				if !isLValueForm(c.Expr) {
					return errf(c.ConnPos, "connection to output port %s.%s must be an assignable expression", name, c.Name)
				}
				if err := addPromo(c.ConnPos, mangled, &promo{dir: verilog.Input, kind: kind, width: width}); err != nil {
					return err
				}
				made[i] = assign(ci.inst, i, c.ConnPos, c.Expr, &verilog.Ident{IdentPos: c.ConnPos, Name: mangled})
				addedAssigns = append(addedAssigns, made[i])
				b.design.Wires = append(b.design.Wires, Wire{
					From: Endpoint{Sub: path + "." + name, Port: c.Name},
					To:   Endpoint{Sub: path, Port: mangled},
				})
			default:
				return errf(c.ConnPos, "inout ports are not supported")
			}
		}
	}

	// Collect hierarchical references over body items plus the assigns
	// added above (connections may themselves use hierarchical names).
	scanItems := append(append([]verilog.Item{}, bodyItems...), addedAssigns...)
	refs, err := collectHierRefs(scanItems)
	if err != nil {
		return err
	}
	for _, ref := range refs {
		ci, ok := children[ref.inst]
		if !ok {
			return errf(ref.pos, "%s.%s: %s is not an instance in this scope", ref.inst, ref.varName, ref.inst)
		}
		mangled := ref.inst + "__" + ref.varName
		if ref.write {
			dir, width, _, err := b.childPortInfo(ci, ref.varName, ref.pos)
			if err != nil {
				return err
			}
			if dir != verilog.Input {
				return errf(ref.pos, "cannot assign to %s.%s: not an input of %s", ref.inst, ref.varName, ref.inst)
			}
			kind := verilog.Wire
			if ref.procedural {
				kind = verilog.Reg
			}
			if err := addPromo(ref.pos, mangled, &promo{dir: verilog.Output, kind: kind, width: width}); err != nil {
				return err
			}
			b.design.Wires = append(b.design.Wires, Wire{
				From: Endpoint{Sub: path, Port: mangled},
				To:   Endpoint{Sub: path + "." + ref.inst, Port: ref.varName},
			})
			continue
		}
		// Read: promote the child variable to an output if necessary.
		// (The child keeps any initializer; the parent-side input port
		// receives the value on the first data-plane broadcast.)
		width, _, err := b.childVarInfo(ci, ref.varName, ref.pos)
		if err != nil {
			return err
		}
		if _, dup := promos[mangled]; !dup {
			if err := addPromo(ref.pos, mangled, &promo{dir: verilog.Input, kind: verilog.Wire, width: width}); err != nil {
				return err
			}
			b.design.Wires = append(b.design.Wires, Wire{
				From: Endpoint{Sub: path + "." + ref.inst, Port: ref.varName},
				To:   Endpoint{Sub: path, Port: mangled},
			})
			if ci.std == nil {
				ci.extraOutputs[ref.varName] = true
			}
		}
	}

	// Rewrite hierarchical references to the mangled local names.
	mangle := func(e verilog.Expr) verilog.Expr {
		if h, ok := e.(*verilog.HierIdent); ok {
			return &verilog.Ident{IdentPos: h.IdentPos, Name: strings.Join(h.Parts, "__")}
		}
		return e
	}
	var newItems []verilog.Item
	var mangled map[verilog.Item]verilog.Item
	for _, it := range scanItems {
		m, ok := prevMangled[it]
		if !ok {
			m = rewriteItem(it, mangle)
		}
		if m != it {
			if mangled == nil {
				mangled = map[verilog.Item]verilog.Item{}
			}
			mangled[it] = m
		}
		newItems = append(newItems, m)
	}

	// Assemble the promoted module.
	pm := &verilog.Module{NamePos: mod.NamePos, Name: mod.Name, Items: newItems}
	for _, pd := range mod.Params {
		pm.Params = append(pm.Params, pd)
	}
	declared := map[string]bool{}
	for _, pt := range mod.Ports {
		pm.Ports = append(pm.Ports, pt)
		declared[pt.Name] = true
	}
	for _, it := range newItems {
		if nd, ok := it.(*verilog.NetDecl); ok {
			for _, dn := range nd.Names {
				declared[dn.Name] = true
			}
		}
	}
	for _, name := range promoOrder {
		if declared[name] {
			return errf(mod.NamePos, "promoted port %s collides with an existing declaration in %s", name, mod.Name)
		}
		pr := promos[name]
		pm.Ports = append(pm.Ports, &verilog.Port{
			Dir:   pr.dir,
			Kind:  pr.kind,
			Range: b.widthRange(pr.width),
			Name:  name,
			Init:  pr.init,
		})
	}

	// Promote extra outputs requested by the parent: move item
	// declarations into the port list, preserving initializers.
	if len(extraOutputs) > 0 {
		pm2, err := b.promoteVarsToOutputs(pm, extraOutputs)
		if err != nil {
			return err
		}
		pm = pm2
	}

	sub := &SubProgram{Path: path, Params: headerEnv, Module: pm, env: env, src: mod, extra: extraOutputs, conns: madeConns, mangled: mangled}
	b.design.Subs = append(b.design.Subs, sub)
	first := len(b.design.Subs)

	// Recurse into children (stdlib children become leaf subprograms).
	for _, name := range childOrder {
		ci := children[name]
		childPath := path + "." + name
		if ci.std != nil {
			b.design.Subs = append(b.design.Subs, &SubProgram{
				Path:    childPath,
				IsStd:   true,
				StdType: ci.std.Name,
				Params:  ci.params,
			})
			continue
		}
		if old := b.reusable(childPath, ci); old != nil {
			b.design.Subs = append(append(b.design.Subs, old), old.below...)
			b.design.Wires = append(b.design.Wires, old.wires...)
			continue
		}
		if err := b.split(ci.mod, childPath, ci.header, ci.extraOutputs); err != nil {
			return err
		}
	}
	if path != RootPath { // the root is never handed out again
		sub.below = slices.Clone(b.design.Subs[first:])
		sub.wires = slices.Clone(b.design.Wires[firstWire:])
	}
	return nil
}

// sameConnAssign reports whether a is the connection assignment lhs = rhs,
// where one side is the connection's own expression and the other the
// promoted port's name.
func sameConnAssign(a *verilog.ContAssign, lhs, rhs verilog.Expr) bool {
	same := func(x, y verilog.Expr) bool {
		if x == y {
			return true
		}
		xi, ok1 := x.(*verilog.Ident)
		yi, ok2 := y.(*verilog.Ident)
		return ok1 && ok2 && xi.Name == yi.Name
	}
	return same(a.LHS, lhs) && same(a.RHS, rhs)
}

// paramEnv evaluates a module's parameters (with overrides) and
// localparams into a constant environment, with the elaborator's own
// evaluator, and picks out the header's: what Elaborate is later handed
// as overrides.
func paramEnv(mod *verilog.Module, overrides map[string]*bits.Vector) (env, header map[string]*bits.Vector, err error) {
	if env, err = elab.Params(mod, overrides); err != nil {
		return nil, nil, err
	}
	header = map[string]*bits.Vector{}
	for _, pd := range mod.Params {
		header[pd.Name] = env[pd.Name]
	}
	return env, header, nil
}

// resolveInstance binds an instantiation to its module or stdlib spec and
// evaluates its parameter overrides in the parent environment.
func (b *builder) resolveInstance(inst *verilog.Instance, parentEnv map[string]*bits.Vector) (*childInst, error) {
	ci := &childInst{inst: inst, extraOutputs: map[string]bool{}}
	if spec, ok := b.reg[inst.ModName]; ok {
		ci.std = spec
		ci.params = map[string]*bits.Vector{}
		for _, sp := range spec.Params {
			ci.params[sp.Name] = sp.Default
		}
		for i, pa := range inst.Params {
			v, err := elab.ConstExpr(pa.Expr, parentEnv)
			if err != nil {
				return nil, err
			}
			name := pa.Name
			if name == "" {
				if i >= len(spec.Params) {
					return nil, errf(inst.InstPos, "too many parameters for %s", inst.ModName)
				}
				name = spec.Params[i].Name
			}
			if _, known := ci.params[name]; !known {
				return nil, errf(inst.InstPos, "%s has no parameter %s", inst.ModName, name)
			}
			ci.params[name] = v
		}
		ci.header = ci.params
		return ci, nil
	}
	mod, ok := b.prog.Modules[inst.ModName]
	if !ok {
		return nil, errf(inst.InstPos, "unknown module %s", inst.ModName)
	}
	ci.mod = mod
	ci.header = map[string]*bits.Vector{}
	for i, pa := range inst.Params {
		v, err := elab.ConstExpr(pa.Expr, parentEnv)
		if err != nil {
			return nil, err
		}
		name := pa.Name
		if name == "" {
			if i >= len(mod.Params) {
				return nil, errf(inst.InstPos, "too many parameters for %s", inst.ModName)
			}
			name = mod.Params[i].Name
		}
		found := false
		for _, pd := range mod.Params {
			if pd.Name == name {
				found = true
				break
			}
		}
		if !found {
			return nil, errf(inst.InstPos, "%s has no parameter %s", inst.ModName, name)
		}
		ci.header[name] = v
	}
	full, _, err := paramEnv(mod, ci.header)
	if err != nil {
		return nil, err
	}
	ci.params = full
	return ci, nil
}

// namedConns normalizes an instance's connections to named form.
func (b *builder) namedConns(ci *childInst) ([]*verilog.PortConn, error) {
	var portNames []string
	if ci.std != nil {
		for _, p := range ci.std.Ports {
			portNames = append(portNames, p.Name)
		}
	} else {
		for _, p := range ci.mod.Ports {
			portNames = append(portNames, p.Name)
		}
	}
	out := make([]*verilog.PortConn, 0, len(ci.inst.Conns))
	seen := map[string]bool{}
	for i, c := range ci.inst.Conns {
		name := c.Name
		if name == "" {
			if i >= len(portNames) {
				return nil, errf(c.ConnPos, "too many connections for %s", ci.inst.ModName)
			}
			name = portNames[i]
		}
		if seen[name] {
			return nil, errf(c.ConnPos, "port %s connected twice", name)
		}
		seen[name] = true
		out = append(out, &verilog.PortConn{ConnPos: c.ConnPos, Name: name, Expr: c.Expr})
	}
	return out, nil
}

// childPortInfo returns direction, width, and kind of a child's port.
func (b *builder) childPortInfo(ci *childInst, port string, pos verilog.Pos) (verilog.PortDir, int, verilog.NetKind, error) {
	if ci.std != nil {
		sp := ci.std.Port(port)
		if sp == nil {
			return 0, 0, 0, errf(pos, "%s has no port %s", ci.std.Name, port)
		}
		return sp.Dir, sp.Width(ci.params), verilog.Wire, nil
	}
	for _, p := range ci.mod.Ports {
		if p.Name != port {
			continue
		}
		w := 1
		if p.Range != nil {
			var err error
			w, err = elab.RangeWidth(p.Range, ci.params)
			if err != nil {
				return 0, 0, 0, err
			}
		}
		return p.Dir, w, p.Kind, nil
	}
	return 0, 0, 0, errf(pos, "%s has no port %s", ci.inst.ModName, port)
}

// childVarInfo returns the width and initializer of any child variable
// readable through a hierarchical reference.
func (b *builder) childVarInfo(ci *childInst, name string, pos verilog.Pos) (int, verilog.Expr, error) {
	if ci.std != nil {
		sp := ci.std.Port(name)
		if sp == nil {
			return 0, nil, errf(pos, "%s has no variable %s", ci.std.Name, name)
		}
		if sp.Dir == verilog.Input {
			return 0, nil, errf(pos, "cannot read input %s.%s hierarchically", ci.inst.Name, name)
		}
		return sp.Width(ci.params), nil, nil
	}
	for _, p := range ci.mod.Ports {
		if p.Name == name {
			if p.Dir == verilog.Input {
				return 0, nil, errf(pos, "cannot read input port %s.%s hierarchically", ci.inst.Name, name)
			}
			w := 1
			if p.Range != nil {
				var err error
				w, err = elab.RangeWidth(p.Range, ci.params)
				if err != nil {
					return 0, nil, err
				}
			}
			return w, nil, nil
		}
	}
	for _, it := range ci.mod.Items {
		nd, ok := it.(*verilog.NetDecl)
		if !ok {
			continue
		}
		for _, dn := range nd.Names {
			if dn.Name != name {
				continue
			}
			if dn.Array != nil {
				return 0, nil, errf(pos, "cannot read memory %s.%s hierarchically", ci.inst.Name, name)
			}
			w := 1
			if nd.Kind == verilog.Integer {
				w = 32
			} else if nd.Range != nil {
				var err error
				w, err = elab.RangeWidth(nd.Range, ci.params)
				if err != nil {
					return 0, nil, err
				}
			}
			return w, dn.Init, nil
		}
	}
	return 0, nil, errf(pos, "%s has no variable %s", ci.inst.ModName, name)
}

// hierRef is one hierarchical reference occurrence.
type hierRef struct {
	inst       string
	varName    string
	pos        verilog.Pos
	write      bool
	procedural bool
}

// collectHierRefs finds all hierarchical references in items, classifying
// reads vs writes.
func collectHierRefs(items []verilog.Item) ([]hierRef, error) {
	var refs []hierRef
	var firstErr error
	record := func(e verilog.Expr, write, procedural bool) {
		h, ok := lvalueRoot(e).(*verilog.HierIdent)
		if !ok {
			return
		}
		if len(h.Parts) != 2 {
			if firstErr == nil {
				firstErr = errf(h.IdentPos, "only direct-child hierarchical references are supported: %s", strings.Join(h.Parts, "."))
			}
			return
		}
		refs = append(refs, hierRef{inst: h.Parts[0], varName: h.Parts[1], pos: h.IdentPos, write: write, procedural: procedural})
	}
	readsIn := func(e verilog.Expr) {
		verilog.WalkExprs(e, func(x verilog.Expr) {
			if h, ok := x.(*verilog.HierIdent); ok {
				record(h, false, false)
			}
		})
	}
	var scanStmt func(s verilog.Stmt)
	scanStmt = func(s verilog.Stmt) {
		switch x := s.(type) {
		case nil:
		case *verilog.Block:
			for _, st := range x.Stmts {
				scanStmt(st)
			}
		case *verilog.If:
			readsIn(x.Cond)
			scanStmt(x.Then)
			scanStmt(x.Else)
		case *verilog.Case:
			readsIn(x.Subject)
			for _, it := range x.Items {
				for _, e := range it.Exprs {
					readsIn(e)
				}
				scanStmt(it.Body)
			}
		case *verilog.ProcAssign:
			record(x.LHS, true, true)
			readsInLValueIndices(x.LHS, readsIn)
			readsIn(x.RHS)
		case *verilog.For:
			scanStmt(x.Init)
			readsIn(x.Cond)
			scanStmt(x.Post)
			scanStmt(x.Body)
		case *verilog.SysTask:
			for _, a := range x.Args {
				readsIn(a)
			}
		}
	}
	for _, it := range items {
		switch x := it.(type) {
		case *verilog.NetDecl:
			for _, dn := range x.Names {
				readsIn(dn.Init)
			}
		case *verilog.ParamDecl:
			readsIn(x.Value)
		case *verilog.ContAssign:
			record(x.LHS, true, false)
			readsInLValueIndices(x.LHS, readsIn)
			readsIn(x.RHS)
		case *verilog.AlwaysBlock:
			for _, ev := range x.Events {
				readsIn(ev.Expr)
			}
			scanStmt(x.Body)
		case *verilog.InitialBlock:
			scanStmt(x.Body)
		}
	}
	return refs, firstErr
}

// lvalueRoot returns the base identifier form of an lvalue expression.
func lvalueRoot(e verilog.Expr) verilog.Expr {
	for {
		switch x := e.(type) {
		case *verilog.Index:
			e = x.X
		case *verilog.RangeSel:
			e = x.X
		default:
			return e
		}
	}
}

// readsInLValueIndices feeds the index sub-expressions of an lvalue to
// the read scanner (they are reads even though the base is a write).
func readsInLValueIndices(e verilog.Expr, readsIn func(verilog.Expr)) {
	switch x := e.(type) {
	case *verilog.Index:
		readsIn(x.Idx)
		readsInLValueIndices(x.X, readsIn)
	case *verilog.RangeSel:
		readsIn(x.Hi)
		readsIn(x.Lo)
		readsInLValueIndices(x.X, readsIn)
	case *verilog.Concat:
		for _, p := range x.Parts {
			readsInLValueIndices(p, readsIn)
		}
	}
}

func isLValueForm(e verilog.Expr) bool {
	switch x := e.(type) {
	case *verilog.Ident, *verilog.HierIdent:
		return true
	case *verilog.Index:
		return isLValueForm(x.X)
	case *verilog.RangeSel:
		return isLValueForm(x.X)
	case *verilog.Concat:
		for _, p := range x.Parts {
			if !isLValueForm(p) {
				return false
			}
		}
		return true
	}
	return false
}

// widthRange returns the [w-1:0] range literal (nil for width 1), one
// node per width and build: a range is only ever read.
func (b *builder) widthRange(w int) *verilog.Range {
	if w <= 1 {
		return nil
	}
	if b.ranges[w] == nil {
		b.ranges[w] = &verilog.Range{Hi: numberOf(bits.FromUint64(32, uint64(w-1))), Lo: numberOf(bits.New(32))}
	}
	return b.ranges[w]
}

// promoteVarsToOutputs moves item-level variable declarations into the
// port list as outputs, preserving initializers via Port.Init.
func (b *builder) promoteVarsToOutputs(m *verilog.Module, names map[string]bool) (*verilog.Module, error) {
	out := &verilog.Module{NamePos: m.NamePos, Name: m.Name, Params: m.Params}
	promoted := map[string]bool{}
	for _, p := range m.Ports {
		out.Ports = append(out.Ports, p)
		if names[p.Name] {
			promoted[p.Name] = true // already a port
		}
	}
	for _, it := range m.Items {
		nd, ok := it.(*verilog.NetDecl)
		if !ok {
			out.Items = append(out.Items, it)
			continue
		}
		var keep []*verilog.DeclName
		for _, dn := range nd.Names {
			if !names[dn.Name] || promoted[dn.Name] {
				keep = append(keep, dn)
				continue
			}
			if dn.Array != nil {
				return nil, errf(dn.NamePos, "cannot promote memory %s to a port", dn.Name)
			}
			kind := nd.Kind
			if kind == verilog.Integer {
				kind = verilog.Reg
			}
			rng := nd.Range
			if nd.Kind == verilog.Integer {
				rng = b.widthRange(32)
			}
			out.Ports = append(out.Ports, &verilog.Port{
				PortPos: dn.NamePos,
				Dir:     verilog.Output,
				Kind:    kind,
				Range:   rng,
				Name:    dn.Name,
				Init:    dn.Init,
			})
			promoted[dn.Name] = true
		}
		if len(keep) > 0 {
			out.Items = append(out.Items, &verilog.NetDecl{DeclPos: nd.DeclPos, Kind: nd.Kind, Range: nd.Range, Names: keep})
		}
	}
	for n := range names {
		if !promoted[n] {
			return nil, errf(m.NamePos, "cannot promote %s in %s: no such variable", n, m.Name)
		}
	}
	return out, nil
}
