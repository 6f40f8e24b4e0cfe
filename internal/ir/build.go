package ir

import (
	"maps"
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
// Build's order. The root is split again, but of each of its items that
// prev's root had too it reuses what does not depend on the rest of the
// root (splitMemo). prev is only read.
func BuildFrom(prev *Design, p *Program, reg Registry) (*Design, error) {
	b := &builder{prog: p, reg: reg, design: &Design{}, ranges: map[int]*verilog.Range{}}
	if prev != nil {
		b.prev = make(map[string]*SubProgram, len(prev.Subs))
		for _, s := range prev.Subs {
			b.prev[s.Path] = s
		}
		if root := b.prev[RootPath]; root != nil && root.memo != nil {
			b.ranges = maps.Clone(root.memo.ranges)
		}
		b.design.Subs = make([]*SubProgram, 0, len(prev.Subs)+1)
		b.design.Wires = make([]Wire, 0, len(prev.Wires)+4)
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
	if !elab.Extends(old.env, ci.params) {
		return nil
	}
	for name := range ci.extraOutputs {
		if !old.extra[name] {
			return nil
		}
	}
	return old
}

// instRes is an instantiation inside one module resolved: the module or
// stdlib spec it names and its parameter values. It depends on the
// instance, the declarations and the values of its overrides only.
type instRes struct {
	inst   *verilog.Instance
	std    *StdSpec                // nil for user modules
	mod    *verilog.Module         // nil for stdlib
	params map[string]*bits.Vector // resolved child parameter values
	header map[string]*bits.Vector // header-only subset (elab overrides)
}

// childInst is a resolved instantiation in one split, with the child
// variables this split promotes to outputs (hierarchical reads).
type childInst struct {
	*instRes
	extraOutputs map[string]bool
}

// splitMemo is what split derived from each item of a module that does
// not depend on the rest of it — parts[i] of items[i] — kept on the root
// for the next split. An item the next root has at the same position is
// the same source, so a body item keeps its hierarchical references and
// their rewrites, and an instance whose resolution comes out the same
// (same declaration, equal override values) keeps its connections:
// promoted ports, assignments and wires. The items a fragment appends are
// the only ones derived afresh.
type splitMemo struct {
	items []verilog.Item
	parts []*itemSplit
	// env is the module's constant environment, under which inlined (the
	// root's items renamed for Inline) was renamed.
	env    map[string]*bits.Vector
	ranges map[int]*verilog.Range // the build's widthRanges
}

// itemSplit is the memo of one item: a body item's hierarchical
// references, its rewrite onto the promoted ports and (the root's) that
// renamed for Inline, nil for a parameter declaration, whose value Inline
// substitutes — or an instance's split. An item none of which changes
// anything has the memo plain.
type itemSplit struct {
	refs    []hierRef
	mangled verilog.Item
	inlined verilog.Item
	inst    *instSplit
}

// plain is the memo of a body item with no hierarchical reference and no
// parameter, which split and Inline take as it is.
var plain = &itemSplit{}

func (p *itemSplit) mangledOf(it verilog.Item) verilog.Item {
	if p == plain {
		return it
	}
	return p.mangled
}

func (p *itemSplit) inlinedOf(it verilog.Item) verilog.Item {
	if p == plain {
		return it
	}
	return p.inlined
}

// instSplit is the memo of an instance: its resolution, its path and its
// connections (Figure 4).
type instSplit struct {
	res   *instRes
	path  string
	conns []*connSplit
}

// connSplit is one connection of an instance: the port the parent gains
// for it (named inst__port after the child's port), of the width the
// child's port has, its portDecl (the root's), the assignment that
// drives or reads it, and the memo of that assignment.
type connSplit struct {
	port  *verilog.Port // its kind as first promoted
	decl  *verilog.NetDecl
	width int
	asn   *verilog.ContAssign
	item  *itemSplit
}

// wire is the data-plane wire of connection c of the instance is in the
// module at path.
func (c *connSplit) wire(path string, is *instSplit) Wire {
	child := Endpoint{Sub: is.path, Port: c.port.Name[len(is.res.inst.Name)+2:]}
	if c.port.Dir == verilog.Output { // the parent drives the child's input
		return Wire{From: Endpoint{Sub: path, Port: c.port.Name}, To: child}
	}
	return Wire{From: child, To: Endpoint{Sub: path, Port: c.port.Name}}
}

// promo is a port a split adds to its module; port is the declaration
// made for it, if any, its kind as first promoted, and decl its portDecl.
type promo struct {
	name  string
	dir   verilog.PortDir
	kind  verilog.NetKind
	width int
	port  *verilog.Port
	decl  *verilog.NetDecl
}

// inlinedItems is the root's inlinedItems, out of the memo: its body
// items, then its connections' assignments, renamed.
func (m *splitMemo) inlinedItems() []verilog.Item {
	out := make([]verilog.Item, 0, len(m.items))
	for i, it := range m.items {
		if m.parts[i].inst == nil {
			if r := m.parts[i].inlinedOf(it); r != nil {
				out = append(out, r)
			}
		}
	}
	for _, p := range m.parts {
		if p.inst != nil {
			for _, cs := range p.inst.conns {
				out = append(out, cs.item.inlinedOf(cs.asn))
			}
		}
	}
	return out
}

// partOf returns the memo's part for mod's i-th item, if the memo has it.
func (m *splitMemo) partOf(mod *verilog.Module, i int) *itemSplit {
	if m == nil || i >= len(m.items) || m.items[i] != mod.Items[i] {
		return nil
	}
	return m.parts[i]
}

// mangle rewrites hierarchical references to the mangled local names.
func mangle(e verilog.Expr) verilog.Expr {
	if h, ok := e.(*verilog.HierIdent); ok {
		return &verilog.Ident{IdentPos: h.IdentPos, Name: strings.Join(h.Parts, "__")}
	}
	return e
}

// body derives a body item's memo, given the root's renamer (nil: not the
// root).
func body(it verilog.Item, rename exprRewriter) (*itemSplit, error) {
	refs, err := collectHierRefs([]verilog.Item{it})
	if err != nil {
		return nil, err
	}
	part := &itemSplit{refs: refs, mangled: rewriteItem(it, mangle)}
	if _, isParam := it.(*verilog.ParamDecl); rename != nil && !isParam {
		part.inlined = rewriteItem(part.mangled, rename)
	}
	if refs == nil && part.mangled == it && (rename == nil || part.inlined == it) {
		return plain, nil
	}
	return part, nil
}

// split transforms one module instance into a subprogram, recursing into
// children.
func (b *builder) split(mod *verilog.Module, path string, overrides map[string]*bits.Vector, extraOutputs map[string]bool) error {
	env, headerEnv, err := paramEnv(mod, overrides)
	if err != nil {
		return err
	}
	firstWire := len(b.design.Wires)
	var memo *splitMemo // (only the root keeps one: an edit only ever splits it again)
	// A module that gained a parameter since its previous split keeps its
	// memo (elab.Extends): no item of that split can name the parameter,
	// so each item's renaming for Inline is what it was.
	if old := b.prev[path]; old != nil && old.memo != nil && elab.Extends(old.memo.env, env) {
		memo = old.memo
	}
	next := &splitMemo{items: mod.Items, parts: make([]*itemSplit, len(mod.Items)), env: env}
	var rename exprRewriter // the root's items are renamed for Inline as they are split
	if path == RootPath {
		rename = substParams(env, nil)
	}

	// Resolve instances. An instance resolved as it was keeps its
	// connections; one resolved anew is connected again below, handing out
	// again the assignments it had (prev), where they are the same.
	ninst := 0
	for _, it := range mod.Items {
		if _, ok := it.(*verilog.Instance); ok {
			ninst++
		}
	}
	kept := 0
	children := make(map[string]*childInst, ninst)
	childOrder := make([]*childInst, 0, ninst)
	cis := make([]childInst, ninst)
	var insts []*instSplit
	var anew []bool              // per instance: connect it
	var prevConns [][]*connSplit // per instance connected anew: its previous connections
	for i, it := range mod.Items {
		old := memo.partOf(mod, i)
		inst, ok := it.(*verilog.Instance)
		if !ok {
			next.parts[i] = old // derived below if new
			continue
		}
		var prev *instSplit
		var prevRes *instRes
		if old != nil {
			prev, prevRes = old.inst, old.inst.res
		}
		res, err := b.resolveInstance(inst, env, prevRes)
		if err != nil {
			return err
		}
		if _, dup := children[inst.Name]; dup {
			return errf(inst.InstPos, "duplicate instance name %s", inst.Name)
		}
		ci := &cis[len(childOrder)]
		ci.instRes = res
		children[inst.Name] = ci
		childOrder = append(childOrder, ci)
		if prev != nil && prev.res == res {
			kept++
			next.parts[i] = old
			insts, anew, prevConns = append(insts, prev), append(anew, false), append(prevConns, nil)
			continue
		}
		is := &instSplit{res: res, path: path + "." + inst.Name}
		next.parts[i] = &itemSplit{inst: is}
		var pc []*connSplit
		if prev != nil {
			pc = prev.conns
		}
		insts, anew, prevConns = append(insts, is), append(anew, true), append(prevConns, pc)
	}

	// The promotion plan: new ports on this module, in order, by name.
	promos := make(map[string]int, 3*len(childOrder))
	plan := make([]promo, 0, 3*len(childOrder))
	addPromo := func(pos verilog.Pos, name string, pr promo) error {
		if i, dup := promos[name]; dup {
			if plan[i].dir != pr.dir {
				return errf(pos, "%s is driven from both sides of the module boundary", name)
			}
			if pr.kind == verilog.Reg {
				plan[i].kind = verilog.Reg
			}
			return nil
		}
		promos[name] = len(plan)
		pr.name = name
		plan = append(plan, pr)
		return nil
	}

	// Connections become promoted ports plus assignments (Figure 4).
	var added []*connSplit
	for k, is := range insts {
		if anew[k] {
			if is.conns, err = b.connect(childOrder[k], prevConns[k], rename); err != nil {
				return err
			}
		}
		for _, cs := range is.conns {
			if err := addPromo(cs.asn.AssignPos, cs.port.Name, promo{dir: cs.port.Dir, kind: cs.port.Kind, width: cs.width, port: cs.port, decl: cs.decl}); err != nil {
				return err
			}
			b.design.Wires = append(b.design.Wires, cs.wire(path, is))
			added = append(added, cs)
		}
	}

	// Hierarchical references over body items plus the assigns added
	// above (connections may themselves use hierarchical names).
	var nbody int
	for i, it := range mod.Items {
		if _, ok := it.(*verilog.Instance); ok {
			continue
		}
		nbody++
		if next.parts[i] == nil {
			if next.parts[i], err = body(it, rename); err != nil {
				return err
			}
		}
	}
	scan := func(refs []hierRef) error {
		for _, ref := range refs {
			if err := b.promoteRef(ref, path, children, promos, addPromo); err != nil {
				return err
			}
		}
		return nil
	}
	for i, it := range mod.Items {
		if _, ok := it.(*verilog.Instance); !ok {
			if err := scan(next.parts[i].refs); err != nil {
				return err
			}
		}
	}
	for _, cs := range added {
		if err := scan(cs.item.refs); err != nil {
			return err
		}
	}

	// The promoted module: body items, then the added assigns, mangled.
	newItems := make([]verilog.Item, 0, nbody+len(added))
	for i, it := range mod.Items {
		if _, ok := it.(*verilog.Instance); !ok {
			newItems = append(newItems, next.parts[i].mangledOf(it))
		}
	}
	for _, cs := range added {
		newItems = append(newItems, cs.item.mangledOf(cs.asn))
	}
	pm := &verilog.Module{NamePos: mod.NamePos, Name: mod.Name, Items: newItems}
	pm.Params = append(pm.Params, mod.Params...)
	pm.Ports = make([]*verilog.Port, 0, len(mod.Ports)+len(plan))
	// A promoted port is named inst__var, so only a declared name with a
	// "__" in it can collide with one.
	declared := map[string]bool{}
	for _, pt := range mod.Ports {
		pm.Ports = append(pm.Ports, pt)
		if strings.Contains(pt.Name, "__") {
			declared[pt.Name] = true
		}
	}
	for _, it := range newItems {
		if nd, ok := it.(*verilog.NetDecl); ok {
			for _, dn := range nd.Names {
				if strings.Contains(dn.Name, "__") {
					declared[dn.Name] = true
				}
			}
		}
	}
	var decls []*verilog.NetDecl // the root's portDecls, those it had
	if path == RootPath {
		decls = make([]*verilog.NetDecl, len(pm.Ports), cap(pm.Ports))
	}
	for _, pr := range plan {
		if declared[pr.name] {
			return errf(mod.NamePos, "promoted port %s collides with an existing declaration in %s", pr.name, mod.Name)
		}
		pt, decl := pr.port, pr.decl
		if pt == nil || pt.Kind != pr.kind {
			pt = &verilog.Port{Dir: pr.dir, Kind: pr.kind, Range: b.widthRange(pr.width), Name: pr.name}
			decl = nil
		}
		pm.Ports = append(pm.Ports, pt)
		if decls != nil {
			decls = append(decls, decl)
		}
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

	sub := &SubProgram{Path: path, Params: headerEnv, Module: pm, env: env, src: mod, extra: extraOutputs, prefix: PrefixOf(path), decls: decls, Kept: kept}
	sub.names = mergedNames(pm, sub.prefix)
	if path == RootPath {
		next.ranges = b.ranges
		sub.memo = next
	}
	b.design.Subs = append(b.design.Subs, sub)
	first := len(b.design.Subs)

	// Recurse into children (stdlib children become leaf subprograms).
	for k, c := range childOrder {
		childPath := insts[k].path
		if c.std != nil {
			b.design.Subs = append(b.design.Subs, &SubProgram{
				Path:    childPath,
				IsStd:   true,
				StdType: c.std.Name,
				Params:  c.params,
				prefix:  PrefixOf(childPath),
			})
			continue
		}
		if old := b.reusable(childPath, c); old != nil {
			b.design.Subs = append(append(b.design.Subs, old), old.below...)
			b.design.Wires = append(b.design.Wires, old.wires...)
			continue
		}
		if err := b.split(c.mod, childPath, c.header, c.extraOutputs); err != nil {
			return err
		}
	}
	if path != RootPath { // the root is never handed out again
		sub.below = slices.Clone(b.design.Subs[first:])
		sub.wires = slices.Clone(b.design.Wires[firstWire:])
	}
	return nil
}

// connect splits the connections of the instance c: one promoted port and
// assignment per connection (the wire follows from them). Where prev —
// the connections the same instance item had in the previous split —
// holds the same assignment, that object is handed out again, so the root
// items an eval only appended to stay what they were. rename is the
// root's renamer (nil: not the root).
func (b *builder) connect(c *childInst, prev []*connSplit, rename exprRewriter) ([]*connSplit, error) {
	conns, err := b.namedConns(c)
	if err != nil {
		return nil, err
	}
	assign := func(pos verilog.Pos, lhs, rhs verilog.Expr) *verilog.ContAssign {
		for _, pc := range prev {
			if sameConnAssign(pc.asn, lhs, rhs) {
				return pc.asn
			}
		}
		return &verilog.ContAssign{AssignPos: pos, LHS: lhs, RHS: rhs}
	}
	name := c.inst.Name
	out := make([]*connSplit, 0, len(conns))
	for _, pc := range conns {
		if pc.Expr == nil {
			continue // explicitly unconnected
		}
		dir, width, kind, err := b.childPortInfo(c, pc.Name, pc.ConnPos)
		if err != nil {
			return nil, err
		}
		cs := &connSplit{width: width}
		port := &verilog.Port{Range: b.widthRange(width), Name: name + "__" + pc.Name}
		ident := &verilog.Ident{IdentPos: pc.ConnPos, Name: port.Name}
		switch dir {
		case verilog.Input:
			// Parent drives the child input: output port + assign.
			port.Dir, port.Kind = verilog.Output, verilog.Wire
			cs.asn = assign(pc.ConnPos, ident, pc.Expr)
		case verilog.Output:
			// Child drives a parent lvalue: input port + assign.
			if !isLValueForm(pc.Expr) {
				return nil, errf(pc.ConnPos, "connection to output port %s.%s must be an assignable expression", name, pc.Name)
			}
			port.Dir, port.Kind = verilog.Input, kind
			cs.asn = assign(pc.ConnPos, pc.Expr, ident)
		default:
			return nil, errf(pc.ConnPos, "inout ports are not supported")
		}
		cs.port = port
		if rename != nil { // the root's
			cs.decl = declOf(port)
		}
		if cs.item, err = body(cs.asn, rename); err != nil {
			return nil, err
		}
		out = append(out, cs)
	}
	return out, nil
}

// promoteRef promotes the child variable a hierarchical reference names
// to a port of the module at path: an output the parent drives (a write)
// or an input the child drives, the child variable promoted to one of its
// outputs if need be (a read).
func (b *builder) promoteRef(ref hierRef, path string, children map[string]*childInst, promos map[string]int, addPromo func(verilog.Pos, string, promo) error) error {
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
		if err := addPromo(ref.pos, mangled, promo{dir: verilog.Output, kind: kind, width: width}); err != nil {
			return err
		}
		b.design.Wires = append(b.design.Wires, Wire{
			From: Endpoint{Sub: path, Port: mangled},
			To:   Endpoint{Sub: path + "." + ref.inst, Port: ref.varName},
		})
		return nil
	}
	// Read: promote the child variable to an output if necessary.
	// (The child keeps any initializer; the parent-side input port
	// receives the value on the first data-plane broadcast.)
	width, _, err := b.childVarInfo(ci, ref.varName, ref.pos)
	if err != nil {
		return err
	}
	if _, dup := promos[mangled]; dup {
		return nil
	}
	if err := addPromo(ref.pos, mangled, promo{dir: verilog.Input, kind: verilog.Wire, width: width}); err != nil {
		return err
	}
	b.design.Wires = append(b.design.Wires, Wire{
		From: Endpoint{Sub: path + "." + ref.inst, Port: ref.varName},
		To:   Endpoint{Sub: path, Port: mangled},
	})
	if ci.std == nil {
		if ci.extraOutputs == nil {
			ci.extraOutputs = map[string]bool{}
		}
		ci.extraOutputs[ref.varName] = true
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
// evaluates its parameter overrides in the parent environment. prev is
// the same instance's resolution in the previous split (nil: none), which
// is handed out again if the overrides evaluate to the same values.
func (b *builder) resolveInstance(inst *verilog.Instance, parentEnv map[string]*bits.Vector, prev *instRes) (*instRes, error) {
	ci := &instRes{inst: inst}
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
		if prev != nil && prev.std == spec && len(prev.params) == len(ci.params) && elab.Extends(prev.params, ci.params) {
			return prev, nil
		}
		return ci, nil
	}
	mod, ok := b.prog.Modules[inst.ModName]
	if !ok {
		return nil, errf(inst.InstPos, "unknown module %s", inst.ModName)
	}
	if prev != nil && prev.mod == mod && len(inst.Params) == 0 {
		return prev, nil
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
	if prev != nil && prev.mod == mod && len(prev.header) == len(ci.header) && elab.Extends(prev.header, ci.header) {
		return prev, nil
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
// node per width, handed from build to build with the root's memo: a
// range is only ever read, and ports the root keeps across builds name
// the ones their build made.
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

// mergedNames lists the names m's variables take in the merged module
// (prefix: PrefixOf its path), in the order elaboration declares them:
// ports, then each declaration's names — nil for the root, whose
// variables keep theirs.
func mergedNames(m *verilog.Module, prefix string) []string {
	if prefix == "" {
		return nil
	}
	n := len(m.Ports)
	for _, it := range m.Items {
		if nd, ok := it.(*verilog.NetDecl); ok {
			n += len(nd.Names)
		}
	}
	names := make([]string, 0, n)
	for _, p := range m.Ports {
		names = append(names, prefix+p.Name)
	}
	for _, it := range m.Items {
		if nd, ok := it.(*verilog.NetDecl); ok {
			for _, dn := range nd.Names {
				names = append(names, prefix+dn.Name)
			}
		}
	}
	return names
}
