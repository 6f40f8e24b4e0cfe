// Package ir implements Cascade-Go's distributed-system intermediate
// representation (paper §3.3). A user program — module declarations plus
// statements eval'd into an implicit root module — is split at module
// granularity into stand-alone subprograms with a constrained protocol:
// variables accessed across module boundaries are promoted to ports
// (Figure 4), nested instantiations are replaced by assignments, and the
// resulting flat system of peers communicates over the runtime's
// data/control plane according to the Wires table.
//
// The package also implements the §4.2 user-logic inlining optimization:
// all user subprograms merge into a single module, leaving only
// standard-library components as separate peers.
package ir

import (
	"fmt"
	"maps"
	"slices"

	"cascade/internal/bits"
	"cascade/internal/verilog"
)

// RootPath is the instance path of the implicit root module.
const RootPath = "main"

// Program is the user's source program as accumulated by the REPL:
// module declarations in the outer scope plus items appended to the end
// of the implicit root module (paper §3.1).
type Program struct {
	Modules   map[string]*verilog.Module
	order     []string
	RootItems []verilog.Item
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{Modules: map[string]*verilog.Module{}}
}

// DeclareModule adds a module declaration to the outer scope. Redefining
// a module is an error: Cascade's REPL is append-only (paper §7.2 — edits
// to eval'd code would violate the monotonicity invariant).
func (p *Program) DeclareModule(m *verilog.Module) error {
	if _, dup := p.Modules[m.Name]; dup {
		return fmt.Errorf("module %s is already declared (Cascade programs are append-only)", m.Name)
	}
	p.Modules[m.Name] = m
	p.order = append(p.order, m.Name)
	return nil
}

// AddRootItems appends items to the implicit root module.
func (p *Program) AddRootItems(items ...verilog.Item) {
	p.RootItems = append(p.RootItems, items...)
}

// Clone returns a shallow copy sharing AST nodes (the AST is never
// mutated after parse, so sharing is safe), with room for mods more
// module declarations and items more root items. Used for trial builds:
// the REPL integrates an eval only if the extended program still builds.
func (p *Program) Clone(mods, items int) *Program {
	c := &Program{
		Modules:   make(map[string]*verilog.Module, len(p.Modules)+mods),
		order:     append(make([]string, 0, len(p.order)+mods), p.order...),
		RootItems: append(make([]verilog.Item, 0, len(p.RootItems)+items), p.RootItems...),
	}
	maps.Copy(c.Modules, p.Modules)
	return c
}

// ModuleNames returns declared module names in declaration order.
func (p *Program) ModuleNames() []string {
	return append([]string{}, p.order...)
}

// StdParam is a declared parameter of a standard-library module.
type StdParam struct {
	Name    string
	Default *bits.Vector
}

// StdPort is a port of a standard-library module; Width receives the
// resolved parameter values.
type StdPort struct {
	Name  string
	Dir   verilog.PortDir
	Width func(params map[string]*bits.Vector) int
}

// StdSpec describes one standard-library module to the IR.
type StdSpec struct {
	Name   string
	Params []StdParam
	Ports  []StdPort
}

// Registry maps standard-library module names to their specs.
type Registry map[string]*StdSpec

// SubProgram is one node of the distributed system.
type SubProgram struct {
	Path    string // instance path, e.g. "main" or "main.r"
	IsStd   bool
	StdType string                  // stdlib module name when IsStd
	Params  map[string]*bits.Vector // header parameter values (elab overrides)
	Module  *verilog.Module         // promoted, self-contained source (user subprograms)
	// Kept counts the instances of the source whose split — resolution,
	// connections: promoted ports, assignments, wires — BuildFrom took
	// from the previous split at Path.
	Kept int

	env map[string]*bits.Vector // full constant environment (incl. localparams)

	// What BuildFrom matches an instance against, with Path and env, to
	// hand this subprogram out again — the declaration it was split from
	// and the variables its parent promoted to outputs — and what goes
	// with it: the subprograms and wires of the instances below it.
	src   *verilog.Module
	extra map[string]bool
	below []*SubProgram
	wires []Wire

	memo *splitMemo // the root's: what the split derived per item, for the next split

	// Where Inline lays out the variables of the instances below it: the
	// i-th instance of its source comes after kids[i] of its declarations,
	// and Module.Ports[promoted[0]:promoted[1]] are the ports split
	// promoted for them, each one end of a wire to one of them.
	kids     []int32
	promoted [2]int

	prefix  string             // PrefixOf(Path)
	names   []string           // MergedNames
	inlined []verilog.Item     // eachInlined's (not the root's)
	decls   []*verilog.NetDecl // portDecl's, by port
}

// MergedNames is the name each variable of the subprogram takes in the
// merged module of Inline (PrefixOf), in the order elaboration declares
// them — ports, then declared names — so that the i-th is the name of
// the i-th variable of its elaboration; nil for the root, whose variables
// keep their names. Computed once, as it is split.
func (s *SubProgram) MergedNames() []string { return s.names }

// portName is the name the subprogram's i-th port takes in the merged
// module.
func (s *SubProgram) portName(i int) string {
	if s.names == nil {
		return s.Module.Ports[i].Name
	}
	return s.names[i] // MergedNames begins with the ports'
}

// Endpoint identifies one side of a wire: a subprogram port.
type Endpoint struct {
	Sub  string
	Port string
}

// Wire is a data-plane connection from a producer port to a consumer
// port.
type Wire struct {
	From Endpoint
	To   Endpoint
}

// Design is the built distributed system.
type Design struct {
	Subs  []*SubProgram
	Wires []Wire

	users []*SubProgram // the non-stdlib Subs, in order, listed once Subs is final (seal)
}

// Sub returns the subprogram at path, or nil.
func (d *Design) Sub(path string) *SubProgram {
	for _, s := range d.Subs {
		if s.Path == path {
			return s
		}
	}
	return nil
}

// UserSubs returns the non-stdlib subprograms, in Subs order: a list
// the design keeps, so a call allocates nothing. It is only read.
func (d *Design) UserSubs() []*SubProgram { return d.users }

// seal lists d's user subprograms once its Subs are final, and returns d.
func (d *Design) seal() *Design {
	d.users = slices.DeleteFunc(slices.Clone(d.Subs), func(s *SubProgram) bool { return s.IsStd })
	return d
}

// StdSubs returns the stdlib subprograms.
func (d *Design) StdSubs() []*SubProgram {
	var out []*SubProgram
	for _, s := range d.Subs {
		if s.IsStd {
			out = append(out, s)
		}
	}
	return out
}

// Error is an IR-construction error.
type Error struct {
	Pos verilog.Pos
	Msg string
}

func (e *Error) Error() string {
	if e.Pos.Line == 0 {
		return e.Msg
	}
	return fmt.Sprintf("%s: %s", e.Pos, e.Msg)
}

func errf(pos verilog.Pos, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}
