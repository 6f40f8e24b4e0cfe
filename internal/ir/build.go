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
	return b.design.seal(), nil
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
// variables this split promotes to outputs (hierarchical reads), and its
// split, taken from the previous one or to be connected (anew).
type childInst struct {
	*instRes
	extraOutputs map[string]bool
	is           *instSplit
	anew         bool
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
// child's port has, the assignment that drives or reads it, and the memo
// of that assignment. It lives as long as the instance's resolution: a
// split that keeps the resolution keeps it, one that resolves the
// instance anew connects it afresh.
type connSplit struct {
	port  *verilog.Port // its kind as first promoted
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

// promo is a port a split adds to its module for a child endpoint,
// named inst__end after port or variable end of instance inst, and cut
// is len(inst): name[:cut] and name[cut+2:] are the endpoint. port is
// the declaration made for it, if any, its kind as first promoted.
type promo struct {
	name       string
	cut, width int32
	dir        verilog.PortDir
	kind       verilog.NetKind
	port       *verilog.Port
}

// endpoint names the endpoint of a promotion named name, cut at cut, as
// a hierarchical reference.
func endpoint(name string, cut int32) string { return name[:cut] + "." + name[cut+2:] }

// eachInlined is the root's eachInlined, out of the memo: its body items,
// then its connections' assignments, renamed.
func (m *splitMemo) eachInlined(fn func(verilog.Item)) {
	for i, it := range m.items {
		if m.parts[i].inst == nil {
			if r := m.parts[i].inlinedOf(it); r != nil {
				fn(r)
			}
		}
	}
	for _, p := range m.parts {
		if p.inst != nil {
			for _, cs := range p.inst.conns {
				fn(cs.item.inlinedOf(cs.asn))
			}
		}
	}
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
	// connections; one resolved anew is connected below.
	ninst := 0
	for _, it := range mod.Items {
		if _, ok := it.(*verilog.Instance); ok {
			ninst++
		}
	}
	kept := 0
	children := make(map[string]*childInst, ninst)
	cis := make([]childInst, 0, ninst) // in order
	kids := make([]int32, 0, ninst)
	var ndecl int32 // the declarations so far that keep a name (promoteVarsToOutputs)
	for i, it := range mod.Items {
		old := memo.partOf(mod, i)
		inst, ok := it.(*verilog.Instance)
		if !ok {
			if nd, isDecl := it.(*verilog.NetDecl); isDecl && slices.ContainsFunc(nd.Names, func(dn *verilog.DeclName) bool { return !extraOutputs[dn.Name] }) {
				ndecl++
			}
			next.parts[i] = old // derived below if new
			continue
		}
		kids = append(kids, ndecl)
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
		cis = append(cis, childInst{instRes: res, is: prev})
		ci := &cis[len(cis)-1]
		children[inst.Name] = ci
		if prev != nil && prev.res == res {
			kept++
			next.parts[i] = old
			continue
		}
		ci.is, ci.anew = &instSplit{res: res, path: path + "." + inst.Name}, true
		next.parts[i] = &itemSplit{inst: ci.is}
	}

	// The promotion plan: new ports on this module, in order, by name.
	// Two endpoints can mangle to one name (a.b__c and a__b.c): a name is
	// planned again only for the endpoint it was planned for (planned).
	promos := make(map[string]int, 3*len(cis))
	plan := make([]promo, 0, 3*len(cis))
	planned := func(pos verilog.Pos, name string, cut int32) (int, error) {
		i, dup := promos[name]
		switch {
		case !dup:
			return -1, nil
		case plan[i].cut != cut:
			return -1, errf(pos, "%s and %s would both be promoted to %s", endpoint(name, plan[i].cut), endpoint(name, cut), name)
		}
		return i, nil
	}
	addPromo := func(pos verilog.Pos, pr promo) error {
		i, err := planned(pos, pr.name, pr.cut)
		switch {
		case err != nil:
			return err
		case i < 0:
			promos[pr.name] = len(plan)
			plan = append(plan, pr)
		case plan[i].dir != pr.dir:
			return errf(pos, "%s is driven from both sides of the module boundary", pr.name)
		case pr.kind == verilog.Reg:
			plan[i].kind = verilog.Reg
		}
		return nil
	}

	// Connections become promoted ports plus assignments (Figure 4).
	var added []*connSplit
	for k := range cis {
		ci := &cis[k]
		if ci.anew {
			if ci.is.conns, err = b.connect(ci, rename); err != nil {
				return err
			}
		}
		for _, cs := range ci.is.conns {
			pr := promo{name: cs.port.Name, cut: int32(len(ci.inst.Name)), width: int32(cs.width), dir: cs.port.Dir, kind: cs.port.Kind, port: cs.port}
			if err := addPromo(cs.asn.AssignPos, pr); err != nil {
				return err
			}
			b.design.Wires = append(b.design.Wires, cs.wire(path, ci.is))
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
			if err := b.promoteRef(ref, path, children, planned, addPromo); err != nil {
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
	for _, pr := range plan {
		if declared[pr.name] {
			return errf(mod.NamePos, "promoted port %s collides with an existing declaration in %s", pr.name, mod.Name)
		}
		pt := pr.port
		if pt == nil || pt.Kind != pr.kind {
			pt = &verilog.Port{Dir: pr.dir, Kind: pr.kind, Range: b.widthRange(int(pr.width)), Name: pr.name}
		}
		pm.Ports = append(pm.Ports, pt)
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

	sub := &SubProgram{Path: path, Params: headerEnv, Module: pm, env: env, src: mod, extra: extraOutputs, prefix: PrefixOf(path), Kept: kept,
		kids: kids, promoted: [2]int{len(mod.Ports), len(mod.Ports) + len(plan)}}
	sub.names = mergedNames(pm, sub.prefix)
	if path == RootPath {
		next.ranges = b.ranges
		sub.memo = next
	}
	b.design.Subs = append(b.design.Subs, sub)
	first := len(b.design.Subs)

	// Recurse into children (stdlib children become leaf subprograms).
	for k := range cis {
		c := &cis[k]
		childPath := c.is.path
		if c.std != nil {
			b.design.Subs = append(b.design.Subs, &SubProgram{
				Path:    childPath,
				IsStd:   true,
				StdType: c.std.Name,
				Params:  c.params,
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

// connect splits the connections of the instance c, resolved anew: one
// promoted port and assignment per connection (the wire follows from
// them). An instance whose resolution the split kept keeps its
// connections instead (instSplit), so the root items an eval only
// appended to stay what they were. rename is the root's renamer (nil: not
// the root).
func (b *builder) connect(c *childInst, rename exprRewriter) ([]*connSplit, error) {
	conns, err := c.namedConns()
	if err != nil {
		return nil, err
	}
	name := c.inst.Name
	out := make([]*connSplit, 0, len(conns))
	for _, pc := range conns {
		if pc.Expr == nil {
			continue // explicitly unconnected
		}
		dir, width, kind, err := c.portInfo(pc.Name, pc.ConnPos)
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
			cs.asn = &verilog.ContAssign{AssignPos: pc.ConnPos, LHS: ident, RHS: pc.Expr}
		case verilog.Output:
			// Child drives a parent lvalue: input port + assign.
			if !isLValueForm(pc.Expr) {
				return nil, errf(pc.ConnPos, "connection to output port %s.%s must be an assignable expression", name, pc.Name)
			}
			port.Dir, port.Kind = verilog.Input, kind
			cs.asn = &verilog.ContAssign{AssignPos: pc.ConnPos, LHS: pc.Expr, RHS: ident}
		default:
			return nil, errf(pc.ConnPos, "inout ports are not supported")
		}
		cs.port = port
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
func (b *builder) promoteRef(ref hierRef, path string, children map[string]*childInst, planned func(pos verilog.Pos, name string, cut int32) (int, error), addPromo func(verilog.Pos, promo) error) error {
	ci, ok := children[ref.inst]
	if !ok {
		return errf(ref.pos, "%s.%s: %s is not an instance in this scope", ref.inst, ref.varName, ref.inst)
	}
	mangled := ref.inst + "__" + ref.varName
	if ref.write {
		dir, width, _, err := ci.portInfo(ref.varName, ref.pos)
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
		if err := addPromo(ref.pos, promo{name: mangled, cut: int32(len(ref.inst)), width: int32(width), dir: verilog.Output, kind: kind}); err != nil {
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
	width, err := ci.varWidth(ref.varName, ref.pos)
	if err != nil {
		return err
	}
	if i, err := planned(ref.pos, mangled, int32(len(ref.inst))); err != nil || i >= 0 {
		return err // a port of the endpoint: the read reads it, whichever side drives it
	}
	if err := addPromo(ref.pos, promo{name: mangled, cut: int32(len(ref.inst)), width: int32(width), dir: verilog.Input, kind: verilog.Wire}); err != nil {
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
		if err := bindParams(inst, spec.Params, func(p StdParam) string { return p.Name }, parentEnv, ci.params); err != nil {
			return nil, err
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
	if err := bindParams(inst, mod.Params, func(p *verilog.ParamDecl) string { return p.Name }, parentEnv, ci.header); err != nil {
		return nil, err
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

// bindParams evaluates inst's parameter overrides in env and binds each
// to the child's declared parameter it names (name of each), a positional
// one to the declared parameter in its place.
func bindParams[P any](inst *verilog.Instance, declared []P, name func(P) string, env, bind map[string]*bits.Vector) error {
	for i, pa := range inst.Params {
		v, err := elab.ConstExpr(pa.Expr, env)
		if err != nil {
			return err
		}
		n := pa.Name
		if n == "" {
			if i >= len(declared) {
				return errf(inst.InstPos, "too many parameters for %s", inst.ModName)
			}
			n = name(declared[i])
		}
		if !slices.ContainsFunc(declared, func(p P) bool { return name(p) == n }) {
			return errf(inst.InstPos, "%s has no parameter %s", inst.ModName, n)
		}
		bind[n] = v
	}
	return nil
}

// port returns the name, direction and kind of the child's i-th port, a
// stdlib spec's or its module's; ok is false past the last.
func (r *instRes) port(i int) (name string, dir verilog.PortDir, kind verilog.NetKind, ok bool) {
	if r.std != nil {
		if i >= len(r.std.Ports) {
			return "", 0, 0, false
		}
		return r.std.Ports[i].Name, r.std.Ports[i].Dir, verilog.Wire, true
	}
	if i >= len(r.mod.Ports) {
		return "", 0, 0, false
	}
	p := r.mod.Ports[i]
	return p.Name, p.Dir, p.Kind, true
}

// portNamed returns the index, direction and kind of the child's port
// name; the index is -1 if it has none.
func (r *instRes) portNamed(name string) (int, verilog.PortDir, verilog.NetKind) {
	for i := 0; ; i++ {
		n, dir, kind, ok := r.port(i)
		if !ok {
			return -1, 0, 0
		}
		if n == name {
			return i, dir, kind
		}
	}
}

// portWidth returns the width of the child's i-th port under its
// parameters.
func (r *instRes) portWidth(i int) (int, error) {
	if r.std != nil {
		return r.std.Ports[i].Width(r.params), nil
	}
	return rangeWidth(r.mod.Ports[i].Range, r.params)
}

// rangeWidth is the width a declaration's range gives (1 without one).
func rangeWidth(rng *verilog.Range, env map[string]*bits.Vector) (int, error) {
	if rng == nil {
		return 1, nil
	}
	return elab.RangeWidth(rng, env)
}

// namedConns normalizes an instance's connections to named form.
func (r *instRes) namedConns() ([]*verilog.PortConn, error) {
	out := make([]*verilog.PortConn, 0, len(r.inst.Conns))
	seen := map[string]bool{}
	for i, c := range r.inst.Conns {
		name := c.Name
		if name == "" {
			var ok bool
			if name, _, _, ok = r.port(i); !ok {
				return nil, errf(c.ConnPos, "too many connections for %s", r.inst.ModName)
			}
		}
		if seen[name] {
			return nil, errf(c.ConnPos, "port %s connected twice", name)
		}
		seen[name] = true
		out = append(out, &verilog.PortConn{ConnPos: c.ConnPos, Name: name, Expr: c.Expr})
	}
	return out, nil
}

// portInfo returns direction, width, and kind of a child's port.
func (r *instRes) portInfo(port string, pos verilog.Pos) (verilog.PortDir, int, verilog.NetKind, error) {
	i, dir, kind := r.portNamed(port)
	if i < 0 {
		return 0, 0, 0, errf(pos, "%s has no port %s", r.inst.ModName, port)
	}
	w, err := r.portWidth(i)
	return dir, w, kind, err
}

// varWidth returns the width of a child variable readable through a
// hierarchical reference: a port the child drives or, in a user module, a
// declared variable that is not a memory.
func (r *instRes) varWidth(name string, pos verilog.Pos) (int, error) {
	if i, dir, _ := r.portNamed(name); i >= 0 {
		if dir == verilog.Input {
			what := "input port"
			if r.std != nil {
				what = "input"
			}
			return 0, errf(pos, "cannot read %s %s.%s hierarchically", what, r.inst.Name, name)
		}
		return r.portWidth(i)
	}
	if r.mod != nil {
		for _, it := range r.mod.Items {
			nd, ok := it.(*verilog.NetDecl)
			if !ok {
				continue
			}
			for _, dn := range nd.Names {
				if dn.Name != name {
					continue
				}
				if dn.Array != nil {
					return 0, errf(pos, "cannot read memory %s.%s hierarchically", r.inst.Name, name)
				}
				if nd.Kind == verilog.Integer {
					return 32, nil
				}
				return rangeWidth(nd.Range, r.params)
			}
		}
	}
	return 0, errf(pos, "%s has no variable %s", r.inst.ModName, name)
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
// reads vs writes, in the order the items and their statements hold them
// (which orders the promoted ports).
func collectHierRefs(items []verilog.Item) ([]hierRef, error) {
	var refs []hierRef
	var firstErr error
	record := func(e verilog.Expr, write, procedural bool) {
		h, ok := verilog.LValueRoot(e).(*verilog.HierIdent)
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
	read := func(x verilog.Expr) {
		if h, ok := x.(*verilog.HierIdent); ok {
			record(h, false, false)
		}
	}
	readsIn := func(e verilog.Expr) { verilog.WalkExprs(e, read) }
	assign := func(lhs, rhs verilog.Expr, procedural bool) {
		record(lhs, true, procedural)
		readsInLValueIndices(lhs, readsIn)
		readsIn(rhs)
	}
	stmt := func(s verilog.Stmt) bool {
		if x, ok := s.(*verilog.ProcAssign); ok {
			assign(x.LHS, x.RHS, true)
			return false
		}
		return true
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
			assign(x.LHS, x.RHS, false)
		case *verilog.AlwaysBlock:
			for _, ev := range x.Events {
				readsIn(ev.Expr)
			}
			verilog.WalkStmt(x.Body, stmt, read)
		case *verilog.InitialBlock:
			verilog.WalkStmt(x.Body, stmt, read)
		}
	}
	return refs, firstErr
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
