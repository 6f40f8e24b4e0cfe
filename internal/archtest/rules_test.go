package archtest

import (
	"bytes"
	"cmp"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// rules is the table, one row per rule.
var rules = []rule{
	{name: "engine/built-by-lifecycle", in: src("internal/runtime", "internal/transport"),
		why:   "internal/lifecycle alone builds engines; the runtime's and the daemon host's copies of the hot swap diverged",
		match: func(c *cursor, n ast.Node) bool { return c.ref(n, "engine/sweng.New", "njit.New", "engine/hweng.New") },
		bad:   "internal/runtime/seeded.go\npackage runtime\nimport j \"cascade/internal/njit\"\nfunc seeded() { _ = j.New } // want seeded"},
	{name: "engine/hosted-spawn-in-host", in: src("internal/runtime"), allow: []string{"Runtime.host"},
		why:   "daemon-hosted engines are the lifecycle's Hosted rung, spawned only in its Config.Host callback; hand-written spawns forgot to retire",
		match: func(c *cursor, n ast.Node) bool { return sel(n) == "Spawn" },
		bad:   "internal/runtime/seeded.go\npackage runtime\nfunc (r *Runtime) seeded() {\n\tspawn := r.link.Spawn // want Runtime.seeded\n\t_ = spawn\n}"},
	{name: "engine/no-unplaced", in: src("internal/runtime"),
		why:   `a hosted engine's tier is lifecycle.Hosted; the runtime never reads "not built here" (lifecycle.Unplaced) as "hosted"`,
		match: func(c *cursor, n ast.Node) bool { return c.ref(n, "lifecycle.Unplaced") },
		bad:   "internal/runtime/seeded.go\npackage runtime\nimport lc \"cascade/internal/lifecycle\"\nfunc seeded() { _ = lc.Unplaced } // want seeded"},
	{name: "engine/moves-settled-once", in: src("internal/runtime", "internal/transport"), allow: []string{"Runtime.settle", "Host.settle"},
		why: "a move's counts, area gauge and compile are applied where its owner settles it; per-site copies left stale gauges and double counts",
		match: func(c *cursor, n ast.Node) bool {
			return observed(n, false, "Promotions", "Evictions", "Failovers", "Rehosts") || sel(n) == "Submit" ||
				sel(n) == "Set" && sel(n.(*ast.SelectorExpr).X) == "AreaLEs"
		},
		bad: "internal/transport/seeded.go\npackage transport\nfunc (h *Host) seeded() {\n\th.obs.Promotions.Inc() // want Host.seeded\n}"},
	{name: "engine/series-one-book", in: src("cmd/...", "internal/...", ".").but("internal/obsv/..."), allow: []string{"tenant.bank"},
		why: "a counted event's series moves only through the obsv.Tally bound to its owner's figure, or tenant.bank; second increments let /metrics and Stats disagree",
		match: func(c *cursor, n ast.Node) bool {
			a, ok := c.parent().(*ast.AssignStmt) // binding Tallies: t.Series = o.X
			bind := ok && !slices.ContainsFunc(a.Lhs, func(e ast.Expr) bool { return sel(e) != "Series" })
			return !bind && observed(n, true, "Probes", "ProbeFailures", "BreakerTrips", "Faults", "Checkpoints", "TransportDrops", "TransportRetry", "CacheHits", "CacheMisses")
		},
		bad: "internal/supervise/seeded.go\npackage supervise\nfunc (s *Supervisor) seeded() {\n\ts.obs.Probes.Inc() // want Supervisor.seeded\n}"},
	{name: "netlist/njit-executes", in: src("...").but("internal/netlist/...", "internal/njit/...", "benchmark/..."),
		why: "njit's compiled form is the one netlist executor; the fabric model stepped netlist.Machine's reference loop at ten times njit's tick",
		match: func(c *cursor, n ast.Node) bool {
			return oneOf(sel(n), "Evaluate", "Update") && c.machine(n.(*ast.SelectorExpr).X)
		},
		bad: "internal/fpga/seeded.go\npackage fpga\nimport \"cascade/internal/netlist\"\nfunc seeded(m *netlist.Machine) {\n\tstep := m.Evaluate // want seeded\n\tstep()\n}"},
	{name: "netlist/op-kind-sites", in: src("...").but("benchmark/..."), need: []string{"OpAdd"}, once: "internal/netlist/machine.go",
		allow: []string{"internal/netlist/machine.go", "internal/netlist/stats.go", "internal/njit/njit.go"},
		why:   "an op kind means one thing in two places, the reference (Machine.ExecOp) and njit's closures, plus the area model; no second interpreter",
		match: func(c *cursor, n ast.Node) bool {
			return is[*ast.CaseClause](c.parent()) && (id(n) == "OpAdd" || c.ref(n, "netlist.OpAdd"))
		},
		bad: "internal/fpga/seeded.go\npackage fpga\nimport \"cascade/internal/netlist\"\nfunc seeded(op netlist.Op) {\n\tswitch op {\n\tcase netlist.OpAdd: // want seeded\n\t}\n}"},
	{name: "netlist/machine-on-core", in: src("...").but("benchmark/..."), allow: []string{"internal/njit/core.go"},
		why:   "engines over a netlist are built on the one core: outside internal/netlist only njit.NewCore makes a netlist.Machine",
		match: func(c *cursor, n ast.Node) bool { return c.ref(n, "netlist.NewMachine") },
		bad:   "internal/engine/hweng/seeded.go\npackage hweng\nimport x \"cascade/internal/netlist\"\nfunc seeded() { _ = x.NewMachine } // want seeded"},
	{name: "netlist/reference-in-place", in: src("internal/netlist"),
		why: "the reference machine computes into its destinations with bits' destination forms; a value-returning operator allocates a vector per instruction, and it is the production body of every op njit does not fuse",
		match: func(c *cursor, n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			return ok && oneOf(sel(call.Fun), "Resize", "Slice", "And", "Xor", "RedAnd")
		},
		bad: "internal/netlist/seeded.go\npackage netlist\nfunc seeded(m *Machine, i int) {\n\t_ = m.slotVec(i).Resize(8) // want seeded\n}"},
	{name: "netlist/programs-linked", in: src("..."), allow: []string{"internal/netlist/link.go"}, need: []string{"Program"}, once: "internal/netlist/link.go",
		why: "a netlist.Program is what link makes of a design: spans in schedule order over unit-form records; a program composed elsewhere is a second form every reader must handle",
		match: func(c *cursor, n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			return ok && (c.ref(lit.Type, "netlist.Program") || id(lit.Type) == "Program" && strings.HasPrefix(c.name, "internal/netlist/"))
		},
		bad: "internal/engine/hweng/seeded.go\npackage hweng\nimport \"cascade/internal/netlist\"\nfunc seeded() *netlist.Program {\n\treturn &netlist.Program{} // want seeded\n}"},
	{name: "toolchain/no-backend-assert", in: src("internal/toolchain"),
		why: "the farm is a field read at submit (Toolchain.farm), not an implementation behind an interface",
		match: func(c *cursor, n ast.Node) bool {
			return is[*ast.TypeAssertExpr](n) && star(n.(*ast.TypeAssertExpr).Type) == "FarmBackend"
		},
		bad: "internal/toolchain/seeded.go\npackage toolchain\nfunc seeded(b Backend) {\n\t_, _ = b.(*FarmBackend) // want seeded\n}"},
	{name: "toolchain/durable-tiers-once", in: src("internal/toolchain"), allow: []string{"stack.serve"},
		why: "stack.serve alone orders memory tier, model, durable tiers, insertion and storage; three copies of the back half kept diverging books",
		match: func(c *cursor, n ast.Node) bool {
			return oneOf(id(n), "lookupTiers", "metaMatches", "storeTiers") && !is[*ast.FuncDecl](c.parent())
		},
		bad: "internal/toolchain/seeded.go\npackage toolchain\nfunc seeded(s *stack) {\n\tstoreTiers(s.tiers, BitMeta{}, nil) // want seeded\n}"},
	{name: "toolchain/result-prog-once", in: src("internal/toolchain"), allow: []string{"ShardOutcome.result"}, need: []string{"Prog"},
		why: "a Result gains its netlist in exactly one function, from the submitter's own netlist",
		match: func(c *cursor, n ast.Node) bool {
			lit, ok := c.parent().(*ast.CompositeLit)
			return ok && is[*ast.KeyValueExpr](n) && id(n.(*ast.KeyValueExpr).Key) == "Prog" && strings.HasSuffix(tail(lit.Type), "Result")
		},
		bad: "internal/toolchain/seeded.go\npackage toolchain\nfunc seeded() *Result {\n\treturn &Result{Prog: nil} // want seeded\n}"},
	{name: "toolchain/no-model-closure", in: src("internal/toolchain"),
		why: "the back half is Toolchain.model, one function of the request, not a func() *Result closure per path",
		match: func(c *cursor, n ast.Node) bool {
			ft, ok := n.(*ast.FuncType)
			return ok && !is[*ast.FuncDecl](c.parent()) && ft.Params.NumFields() == 0 && ft.Results.NumFields() == 1 && star(ft.Results.List[0].Type) == "Result"
		},
		bad: "internal/toolchain/seeded.go\npackage toolchain\nfunc seeded() {\n\tvar model func() *Result // want seeded\n\t_ = model\n}"},
	{name: "toolchain/cache-holds-outcome", in: src("internal/toolchain"),
		why: "a served flow is a ShardOutcome from the model through the memory tier to the wire: cacheEntry holds no Result and no netlist",
		match: func(c *cursor, n ast.Node) bool {
			return c.decl() == "cacheEntry" && (strings.Contains(id(n), "Result") || c.ref(n, "netlist"))
		},
		bad: "internal/toolchain/seeded.go\npackage toolchain\ntype cacheEntry struct {\n\tres *Result // want cacheEntry\n}"},
	{name: "toolchain/no-per-path-copies", in: src("internal/toolchain"),
		why: "one model (Toolchain.model) and one record (ShardOutcome): the per-path model copies and Result<->wire converters stay gone",
		match: func(c *cursor, n ast.Node) bool {
			return oneOf(id(n), "finishOn", "finishStats", "finishNative", "outcomeOf", "memMeta")
		},
		bad: "internal/toolchain/seeded.go\npackage toolchain\nfunc seeded() {\n\toutcomeOf(nil) // want seeded\n}"},
	{name: "toolchain/one-synthesis", in: src("internal/toolchain"), allow: []string{"Design.synthesize"}, need: []string{"Compile", "Fingerprint"},
		why: "a flow asks its Design record for the netlist and its hash, so a design's flows and resubmissions synthesize once (it ran twice per eval)",
		match: func(c *cursor, n ast.Node) bool {
			return c.ref(n, "netlist.Compile", "netlist.CompileFrom") || sel(n) == "Fingerprint"
		},
		bad: "internal/toolchain/seeded.go\npackage toolchain\nimport x \"cascade/internal/netlist\"\nfunc seeded() {\n\t_ = x.Compile // want seeded\n}"},
	{name: "toolchain/no-flat-table", in: src("internal/toolchain"),
		why: "a Design record hangs off its placement and dies with it: no table from elaborations to designs",
		match: func(c *cursor, n ast.Node) bool {
			return is[*ast.MapType](n) && c.ptr(n.(*ast.MapType).Key, "elab.Flat")
		},
		bad: "internal/toolchain/seeded.go\npackage toolchain\nimport \"cascade/internal/elab\"\nfunc seeded() {\n\t_ = map[*elab.Flat]*Design{} // want seeded\n}"},
	{name: "scheduler/no-path-keyed-tables", in: src("internal/runtime"),
		why: "the loop indexes its []slot table (slotOf for by-path consumers); path-keyed maps and NUL-joined keys were where a step's host time went",
		match: func(c *cursor, n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok {
				text, _ := strconv.Unquote(lit.Value)
				return strings.Contains(text, "\x00")
			}
			mt, ok := n.(*ast.MapType)
			return ok && id(mt.Key) == "string" && c.ptr(mt.Value, "transport.Client") || id(n) == "routesFrom"
		},
		bad: "internal/runtime/seeded.go\npackage runtime\nfunc seeded(path, v string) string {\n\treturn path + \"\\x00\" + v // want seeded\n}"},
	{name: "scheduler/one-goroutine", in: src("internal/runtime"),
		why: "a Step, the Figure 6 loop of scheduler.go included, runs on the controller goroutine alone; lanes are billed, not run. " +
			"Batches dispatched to lanes ran slower than serially on a 2-core Xeon (BenchmarkScheduler_* at 8 lanes 31.2-41.3 against 19.4-26.9 us/op, at 2 lanes 27.9-39.5 against 24.9-31.6)",
		match: func(c *cursor, n ast.Node) bool { return is[*ast.GoStmt](n) },
		bad:   "internal/runtime/scheduler.go\npackage runtime\nfunc (r *Runtime) round() {\n\tgo r.settleFIFOs() // want Runtime.round\n}"},
	{name: "scheduler/verify-quiet-test-only", in: src("..."),
		why: "engine.VerifyQuiet re-issues every poll and drain the quiet rule skips: a test switch, never an option",
		match: func(c *cursor, n ast.Node) bool {
			a, _ := n.(*ast.AssignStmt)
			v, _ := n.(*ast.ValueSpec)
			return a != nil && a.Tok == token.ASSIGN && slices.ContainsFunc(a.Lhs, func(e ast.Expr) bool { return tail(e) == "VerifyQuiet" }) ||
				v != nil && len(v.Values) > 0 && slices.ContainsFunc(v.Names, func(i *ast.Ident) bool { return i.Name == "VerifyQuiet" })
		},
		bad: "cmd/cascade/seeded.go\npackage main\nimport \"cascade/internal/engine\"\nfunc seeded() {\n\tengine.VerifyQuiet = true // want seeded\n}"},
	{name: "scheduler/drain-by-visit", in: src("...").but("benchmark/..."),
		why:   "VisitWrites is the ABI's one drain (engine.Collect keeps the events); DrainWrites stays only for the benchmark module's layer replay",
		match: func(c *cursor, n ast.Node) bool { return sel(n) == "DrainWrites" || id(n) == "WriteVisitor" },
		bad:   "internal/runtime/seeded.go\npackage runtime\nfunc (r *Runtime) seeded(c *transport.Client) {\n\tdrain := c.DrainWrites // want Runtime.seeded\n\t_ = drain\n}"},
	{name: "ledger/pins-golden", in: scope{test: true, in: []string{"..."}},
		why:   "a pinned virtual ledger is a readable testdata/<Test>/<case>.golden record (internal/golden), reviewed as a diff, never a digest",
		match: func(c *cursor, n ast.Node) bool { return imports(n, "hash/fnv") },
		bad:   "internal/sim/seeded_test.go\npackage sim\nimport \"hash/fnv\" // want -"},
	{name: "frontend/in-integrate", in: src("internal/runtime", "internal/bench"), allow: []string{"internal/runtime/version.go"},
		why: "integrate (version.go) alone spells parse -> build -> elaborate -> inline -> elaborate, whole before a commit; four copies refused after journaling",
		match: func(c *cursor, n ast.Node) bool {
			return c.ref(n, "verilog.ParseProgramFragment", "ir.Build", "ir.BuildFrom", "ir.Inline", "elab.Elaborate", "elab.ElaborateFrom")
		},
		bad: "internal/bench/seeded.go\npackage bench\nimport e \"cascade/internal/elab\"\nfunc seeded() {\n\t_ = e.Elaborate // want seeded\n}"},
	{name: "frontend/reuse-in-integrate", in: src("..."), allow: []string{"internal/runtime/version.go"},
		why:   "only integrate hands ir.BuildFrom or elab.ElaborateFrom a predecessor (the base version is the memo); the rest build from scratch",
		match: func(c *cursor, n ast.Node) bool { return c.ref(n, "ir.BuildFrom", "elab.ElaborateFrom") },
		bad:   "internal/repl/seeded.go\npackage repl\nimport \"cascade/internal/ir\"\nfunc seeded() {\n\tir.BuildFrom(nil, nil) // want seeded\n}"},
	{name: "frontend/no-loose-fields", in: src("internal/runtime/runtime.go"),
		why: "a program's identity is Runtime.ver, one immutable version record, not the eight loose Runtime fields it replaced",
		match: func(c *cursor, n ast.Node) bool {
			field := len(c.stack) == 6 && is[*ast.Field](c.parent()) // GenDecl, TypeSpec, StructType, FieldList, Field, name
			return field && c.decl() == "Runtime" && oneOf(id(n), "prog", "flatDesign", "design", "inlined", "elabs", "clockPath", "clockVar", "everBuilt")
		},
		bad: "internal/runtime/runtime.go\npackage runtime\ntype Runtime struct {\n\tver  *version\n\tprog *ir.Program // want Runtime\n}"},
	{name: "frontend/runtime-holds-version", in: src("internal/runtime/runtime.go"), allow: []string{"Runtime"}, need: []string{"ver"},
		why: "Runtime declares ver *version: the program is the version record",
		match: func(c *cursor, n ast.Node) bool {
			f, ok := n.(*ast.Field)
			return ok && len(c.stack) == 5 && c.decl() == "Runtime" && len(f.Names) == 1 && f.Names[0].Name == "ver" && star(f.Type) == "version"
		},
		bad: "internal/runtime/runtime.go\npackage runtime\ntype Runtime struct { // want Runtime\n\tver version\n}"},
	{name: "frontend/no-v1-snapshot", in: src("internal/runtime", "internal/bench"),
		why:   "snapshots decode through the checksummed container only; the unchecksummed v1 decoder stays gone",
		match: func(c *cursor, n ast.Node) bool { return id(n) == "decodeSnapshotV1" },
		bad:   "internal/runtime/seeded.go\npackage runtime\nfunc seeded(b []byte) {\n\tdecodeSnapshotV1(b) // want seeded\n}"},
	{name: "frontend/one-reuse-key", in: src("internal/netlist"),
		why: "synthesis relocates a unit by the identity elaboration gave it: netlist compares no parameters or shapes, its linker sees no source items",
		match: func(c *cursor, n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			return sel(n) == "Params" || ok && fd.Recv == nil && oneOf(fd.Name.Name, "sameShape", "sameParams") ||
				imports(n, "cascade/internal/verilog") && oneOf(c.name, "internal/netlist/link.go", "internal/netlist/netlist.go")
		},
		bad: "internal/netlist/seeded.go\npackage netlist\nfunc seeded(u *elab.Unit) {\n\t_ = u.Params // want seeded\n}"},
	{name: "elab/names-enter-frame", in: src("internal/elab"), allow: []string{"elaborator.intern", "relocation.variable"},
		why:   "a unit's frame must hold every variable it resolved, a name a fold dropped or a loop variable unrolled away included: that is what makes relocation's shape check sound with no opaque-unit rule",
		match: func(c *cursor, n ast.Node) bool { return sel(n) == "VarNamed" },
		bad:   "internal/elab/expr.go\npackage elab\nimport \"cascade/internal/verilog\"\nfunc (e *elaborator) index(id *verilog.Ident) {\n\tv := e.flat.VarNamed(id.Name) // want elaborator.index\n\t_ = v\n}"},
	{name: "elab/vars-set-once", in: src("..."), allow: []string{"elaborator.declare"},
		why:   "a Var is built whole by elaborator.declare and never written after: versions share their base's variables by pointer (elab.ElaborateFrom), so a write changes every version that holds the variable",
		match: func(c *cursor, n ast.Node) bool { return c.varWrite(n) },
		bad:   "internal/runtime/seeded.go\npackage runtime\nimport \"cascade/internal/elab\"\nfunc seeded(f *elab.Flat) {\n\tfor _, v := range f.Vars {\n\t\tv.IsInput = true // want seeded\n\t}\n}"},
	{name: "frontend/env-by-extends", in: src("...").but("internal/elab/..."),
		why: "a parameter environment stands for another by elab.Extends only",
		match: func(c *cursor, n ast.Node) bool {
			return is[*ast.FuncDecl](n) && oneOf(n.(*ast.FuncDecl).Name.Name, "extendsEnv", "sameEnv")
		},
		bad: "internal/netlist/seeded.go\npackage netlist\nfunc sameEnv(a, b map[string]uint64) bool { return false } // want sameEnv"},
	{name: "frontend/one-source-walker", in: src("..."),
		allow: []string{"internal/verilog/walk.go", "internal/verilog/printer.go", "internal/ir/rewrite.go", "internal/elab/elab.go elaborator.stmt"},
		why:   "verilog.WalkStmt is the one read-only walk of source statements; four readers each spelled the grammar, and a new statement kind had four places to be missed",
		match: func(c *cursor, n ast.Node) bool {
			e, ok := n.(ast.Expr)
			return ok && is[*ast.CaseClause](c.parent()) && (c.ptr(e, "verilog.Block") || strings.HasPrefix(c.name, "internal/verilog/") && star(e) == "Block")
		},
		bad: "internal/metrics/metrics.go\npackage metrics\nimport \"cascade/internal/verilog\"\n" +
			"func (r *Report) countStmt(s verilog.Stmt) {\n\tswitch x := s.(type) {\n\tcase *verilog.Block: // want Report.countStmt\n" +
			"\t\tfor _, st := range x.Stmts {\n\t\t\tr.countStmt(st)\n\t\t}\n\tcase *verilog.If:\n\t\tr.countStmt(x.Then)\n\t\tr.countStmt(x.Else)\n\t}\n}"},
	{name: "fault/no-chaos", in: scope{test: true, src: true, in: []string{"..."}},
		why:   "internal/chaos is gone: every seeded outage is planned by fault.Config.Outages",
		match: func(c *cursor, n ast.Node) bool { return imports(n, "cascade/internal/chaos") },
		bad:   "internal/transport/seeded_test.go\npackage transport\nimport \"cascade/internal/chaos\" // want -"},
	{name: "fault/seeded-streams", in: scope{test: true, src: true, in: []string{"..."}}, allow: []string{"internal/vgen/...", "internal/toolchain/farm.go FarmBackend.rank"},
		why: "no splitmix64 stream is seeded outside internal/fault but vgen's generator and the farm's rendezvous rank; private planners overlapped outages",
		match: func(c *cursor, n ast.Node) bool {
			return is[*ast.CallExpr](n) && c.ref(n.(*ast.CallExpr).Fun, "fault.SplitMix")
		},
		bad: "internal/supervise/seeded.go\npackage supervise\nimport f \"cascade/internal/fault\"\nfunc seeded() {\n\t_ = f.SplitMix(1) // want seeded\n}"},
	{name: "options/docs", in: src("options.go"),
		why: "a facade option constructor's doc comment states its default and its Features interaction, which the signature does not show",
		match: func(c *cursor, n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			ctor := ok && fd.Recv == nil && slices.ContainsFunc([]string{"With", "Disable", "EagerSim", "Native"}, func(p string) bool { return strings.HasPrefix(fd.Name.Name, p) })
			return ctor && (!strings.Contains(fd.Doc.Text(), "default") && !strings.Contains(fd.Doc.Text(), "Default") || !strings.Contains(fd.Doc.Text(), "Features"))
		},
		bad: "options.go\npackage cascade\n// WithSeeded has a default but nothing else.\nfunc WithSeeded() Option { return nil } // want WithSeeded"},
}

// rule is one row of the table. Its matcher picks the nodes the rule is
// about; one outside the allowed sites breaks the rule.
type rule struct {
	name, why string
	in        scope
	allow     []string // "dir/...", "dir/file.go", "Recv.Func" or "Type", "dir/file.go Recv.Func"
	need      []string // text every allowed site must hold a match of
	once      string   // an allowed file that may hold one match only
	match     func(c *cursor, n ast.Node) bool
	bad       string // a seeded violation: its file name, a newline, Go source with a "// want Decl" line
}

// scope is the files a rule reads, as Go package patterns ("dir" for the
// files in dir, "dir/..." for those under it, "file.go"), minus out.
type scope struct {
	test, src bool
	in, out   []string
}

func src(in ...string) scope            { return scope{src: true, in: in} }
func (s scope) but(out ...string) scope { s.out = out; return s }

func (s scope) has(name string) bool {
	in := func(pattern string) bool { return matches(pattern, name) }
	test := strings.HasSuffix(name, "_test.go")
	return (test && s.test || !test && s.src) && slices.ContainsFunc(s.in, in) && !slices.ContainsFunc(s.out, in)
}

func matches(pattern, name string) bool {
	dir, tree := strings.CutSuffix(pattern, "...")
	return tree && strings.HasPrefix(name, dir) || name == pattern || path.Dir(name) == pattern
}

type file struct {
	name     string // slash-separated, from the repo root
	src      []byte
	fset     *token.FileSet
	ast      *ast.File
	imports  map[string]string            // local name -> import path
	machines map[string]bool              // names bound to a *netlist.Machine, once asked
	vars     map[ast.Node]map[string]bool // by top-level declaration, its names bound to an elab.Var, once asked
}

func parse(t *testing.T, fset *token.FileSet, name string, src []byte) *file {
	f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	imports := map[string]string{}
	for _, im := range f.Imports {
		p, _ := strconv.Unquote(im.Path.Value)
		name := path.Base(p)
		if im.Name != nil {
			name = im.Name.Name
		}
		imports[name] = p
	}
	return &file{name: name, src: src, fset: fset, ast: f, imports: imports}
}

// load parses every .go file under the go.mod of module cascade, found
// by walking up from the working directory.
func load(t *testing.T) (files []*file) {
	var root string
	for dir, _ := os.Getwd(); root == ""; dir = filepath.Dir(dir) {
		if mod, _ := os.ReadFile(filepath.Join(dir, "go.mod")); bytes.HasPrefix(mod, []byte("module cascade\n")) {
			root = dir
		} else if dir == filepath.Dir(dir) {
			t.Fatal("no go.mod of module cascade above the working directory")
		}
	}
	fset, tree := token.NewFileSet(), os.DirFS(root)
	err := fs.WalkDir(tree, ".", func(name string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() && name != "." && strings.HasPrefix(d.Name(), ".") {
			return cmp.Or(err, fs.SkipDir)
		}
		if d.IsDir() || !strings.HasSuffix(name, ".go") {
			return nil
		}
		src, err := fs.ReadFile(tree, name)
		if err == nil {
			files = append(files, parse(t, fset, name, src))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// finding is a matched node: where, in which declaration, its first line.
type finding struct {
	name       string
	line       int
	decl, text string
}

func (f finding) String() string { return fmt.Sprintf("%s:%d: %s: %s", f.name, f.line, f.decl, f.text) }

// at reports whether f sits at an allowed site.
func (f finding) at(site string) bool {
	return site == f.decl || site == f.name+" "+f.decl || matches(site, f.name)
}

// cursor is where a matcher stands: the file, and the nodes from the
// top-level declaration down to the one matched.
type cursor struct {
	*file
	stack []ast.Node
}

// decl names the top-level declaration: "Recv.Func", "Func", "Type" or "-".
func (c *cursor) decl() string {
	switch d := c.stack[0].(type) {
	case *ast.FuncDecl:
		if d.Recv != nil {
			return tail(d.Recv.List[0].Type) + "." + d.Name.Name
		}
		return d.Name.Name
	case *ast.GenDecl:
		if ts, ok := c.stack[min(1, len(c.stack)-1)].(*ast.TypeSpec); ok {
			return ts.Name.Name
		}
	}
	return "-"
}

func (c *cursor) at(n ast.Node) finding {
	from, to := c.fset.Position(n.Pos()), c.fset.Position(n.End())
	text, _, _ := bytes.Cut(c.src[from.Offset:to.Offset], []byte("\n"))
	return finding{c.name, from.Line, c.decl(), string(text)}
}

func (c *cursor) parent() ast.Node { return c.stack[max(len(c.stack)-2, 0)] }

// check returns what breaks r in files.
func (r rule) check(files []*file) (bad []finding) {
	var found []finding
	decls := map[string]finding{} // where each top-level declaration and each file starts
	for _, f := range files {
		if !r.in.has(f.name) {
			continue
		}
		for _, d := range f.ast.Decls {
			c := &cursor{file: f}
			ast.Inspect(d, func(n ast.Node) bool {
				if n == nil {
					c.stack = c.stack[:len(c.stack)-1]
					return true
				}
				c.stack = append(c.stack, n)
				if n == d || len(c.stack) == 2 && is[*ast.TypeSpec](n) {
					decls[c.decl()], decls[f.name] = c.at(n), cmp.Or(decls[f.name], c.at(n))
				}
				if r.match(c, n) {
					found = append(found, c.at(n))
				}
				return true
			})
		}
	}
	bad = slices.DeleteFunc(slices.Clone(found), func(f finding) bool { return slices.ContainsFunc(r.allow, f.at) })
	if once := slices.DeleteFunc(slices.Clone(found), func(f finding) bool { return r.once == "" || !f.at(r.once) }); len(once) > 1 {
		bad = append(bad, once...)
	}
	for _, need := range r.need {
		for _, site := range r.allow {
			if !slices.ContainsFunc(found, func(f finding) bool { return f.at(site) && strings.Contains(f.text, need) }) {
				miss := decls[site]
				miss.text = "no " + need
				bad = append(bad, miss)
			}
		}
	}
	return bad
}

// ref reports whether n is pkg.Name for a spec "dir.Name" (or "dir", any
// name), dir being pkg's import path under cascade/internal.
func (c *cursor) ref(n ast.Node, specs ...string) bool {
	s, ok := n.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	x, ok := s.X.(*ast.Ident)
	return ok && x.Obj == nil && slices.ContainsFunc(specs, func(spec string) bool {
		dir, name, _ := strings.Cut(spec, ".")
		return c.imports[x.Name] == "cascade/internal/"+dir && (name == "" || name == s.Sel.Name)
	})
}

// ptr reports whether e is *pkg.Name for a spec of ref.
func (c *cursor) ptr(e ast.Expr, spec string) bool {
	s, ok := e.(*ast.StarExpr)
	return ok && c.ref(s.X, spec)
}

// machine reports whether e names a *netlist.Machine: a name the file
// declares as one or assigns netlist.NewMachine's result to, or the
// operand of the method expression (*netlist.Machine).Evaluate.
func (c *cursor) machine(e ast.Expr) bool {
	if c.machines == nil {
		c.machines = map[string]bool{}
		made := func(e ast.Expr) bool {
			call, ok := e.(*ast.CallExpr)
			return ok && c.ref(call.Fun, "netlist.NewMachine")
		}
		ast.Inspect(c.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Field:
				for _, name := range n.Names {
					c.machines[name.Name] = c.machines[name.Name] || c.ptr(n.Type, "netlist.Machine")
				}
			case *ast.ValueSpec:
				for _, name := range n.Names {
					c.machines[name.Name] = c.machines[name.Name] || c.ptr(n.Type, "netlist.Machine") || slices.ContainsFunc(n.Values, made)
				}
			case *ast.AssignStmt:
				for i, v := range n.Rhs {
					c.machines[tail(n.Lhs[i])] = c.machines[tail(n.Lhs[i])] || made(v)
				}
			}
			return true
		})
	}
	p, ok := e.(*ast.ParenExpr)
	return ok && c.ptr(p.X, "netlist.Machine") || c.machines[tail(e)]
}

// varWrite reports whether n assigns to a field of an elab.Var, or to a
// whole one through a pointer: a target that selects one of Var's fields
// from an element of a variable list (a Flat's Vars, Inputs or Outputs, a
// unit's frame) or from a name the declaration binds to a Var — one
// declared as a Var or *Var, or assigned or ranged over from something
// that yields one.
func (c *cursor) varWrite(n ast.Node) bool {
	var lhs []ast.Expr
	switch n := n.(type) {
	case *ast.AssignStmt:
		lhs = n.Lhs
	case *ast.IncDecStmt:
		lhs = []ast.Expr{n.X}
	}
	lists := []string{"Vars", "Inputs", "Outputs", "Frame", "frame", "fr", "bfr"}
	typed := func(e ast.Expr) bool {
		if s, ok := e.(*ast.StarExpr); ok {
			e = s.X
		}
		return c.ref(e, "elab.Var") || strings.HasPrefix(c.name, "internal/elab/") && id(e) == "Var"
	}
	var yields func(e ast.Expr) bool
	yields = func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.UnaryExpr:
			return yields(e.X)
		case *ast.CompositeLit:
			return typed(e.Type)
		case *ast.CallExpr:
			return oneOf(tail(e.Fun), "VarNamed", "declare", "intern", "variable") || id(e.Fun) == "new" && typed(e.Args[0])
		case *ast.IndexExpr:
			return oneOf(tail(e.X), lists...)
		}
		return false
	}
	if c.vars == nil {
		c.vars = map[ast.Node]map[string]bool{}
	}
	bound := c.vars[c.stack[0]]
	if bound == nil {
		bound = map[string]bool{}
		c.vars[c.stack[0]] = bound
		ast.Inspect(c.stack[0], func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Field:
				for _, name := range n.Names {
					bound[name.Name] = bound[name.Name] || typed(n.Type)
				}
			case *ast.ValueSpec:
				for _, name := range n.Names {
					bound[name.Name] = bound[name.Name] || n.Type != nil && typed(n.Type) || slices.ContainsFunc(n.Values, yields)
				}
			case *ast.AssignStmt:
				if len(n.Rhs) == 1 && yields(n.Rhs[0]) {
					bound[tail(n.Lhs[0])] = true
				}
			case *ast.RangeStmt:
				if n.Value != nil && oneOf(tail(n.X), lists...) {
					bound[tail(n.Value)] = true
				}
			}
			return true
		})
	}
	return slices.ContainsFunc(lhs, func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.StarExpr:
			return bound[id(e.X)]
		case *ast.SelectorExpr:
			field := oneOf(e.Sel.Name, "Name", "Index", "Width", "ArrayLen", "ArrayLo", "Init", "IsReg", "IsInput", "IsOutput")
			return field && (bound[id(e.X)] || yields(e.X))
		}
		return false
	})
}

// observed reports whether n selects one of names from an observer: o,
// anything ending in obs or Observer, or (with calls) a call of *obs().
func observed(n ast.Node, calls bool, names ...string) bool {
	s, ok := n.(*ast.SelectorExpr)
	if !ok || !slices.Contains(names, s.Sel.Name) {
		return false
	}
	t := tail(s.X)
	return id(s.X) == "o" || strings.HasSuffix(t, "obs") || strings.HasSuffix(t, "Observer") || calls && strings.HasSuffix(t, "obs()")
}

// tail is the last name of an operand or type: x, a.x and *x end in x;
// x() and a.x() in x().
func tail(n ast.Node) string {
	switch n := n.(type) {
	case *ast.Ident:
		return n.Name
	case *ast.SelectorExpr:
		return n.Sel.Name
	case *ast.StarExpr:
		return tail(n.X)
	case *ast.CallExpr:
		return tail(n.Fun) + "()"
	}
	return ""
}

// name is tail(n) if n is a T, else "": id names an identifier, sel what
// a selector selects, star the T of *T.
func name[T ast.Node](n ast.Node) string {
	if _, ok := n.(T); ok {
		return tail(n)
	}
	return ""
}

var id, sel, star = name[*ast.Ident], name[*ast.SelectorExpr], name[*ast.StarExpr]

func is[T ast.Node](n ast.Node) bool { _, ok := n.(T); return ok }

func oneOf(s string, set ...string) bool { return slices.Contains(set, s) }

// imports reports whether n is the import of path p.
func imports(n ast.Node, p string) bool {
	im, ok := n.(*ast.ImportSpec)
	return ok && im.Path.Value == strconv.Quote(p)
}

// TestRules checks each row over the tree, then over the tree with the
// row's seeded violation added (in place of any file of its name).
func TestRules(t *testing.T) {
	tree := load(t)
	for _, r := range rules {
		t.Run(r.name, func(t *testing.T) {
			for _, f := range r.check(tree) {
				t.Errorf("%v\n\t%s", f, r.why)
			}
			name, src, _ := strings.Cut(r.bad, "\n")
			before, decl, _ := strings.Cut(src, "// want ")
			decl, _, _ = strings.Cut(decl, "\n")
			want := fmt.Sprintf("%s:%d: %s: ", name, strings.Count(before, "\n")+1, decl)
			planted := append(slices.DeleteFunc(slices.Clone(tree), func(f *file) bool { return f.name == name }), parse(t, token.NewFileSet(), name, []byte(src)))
			if got := r.check(planted); !slices.ContainsFunc(got, func(f finding) bool { return strings.HasPrefix(f.String(), want) }) {
				t.Errorf("seeded violation not reported as %q; got %v", want, got)
			}
		})
	}
}
