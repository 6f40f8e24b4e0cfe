package verilog

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// Warning is a non-fatal style or correctness diagnostic.
type Warning struct {
	Pos Pos
	Msg string
}

func (w Warning) String() string { return fmt.Sprintf("%s: warning: %s", w.Pos, w.Msg) }

// Lint reports the mistakes the paper's class study surfaced as common
// (§6.4): incomplete sensitivity lists (which synthesis silently
// "fixes", diverging from simulation), blocking assignments inside
// clocked blocks, non-blocking assignments inside combinational blocks,
// and declared-but-never-used variables. The REPL surfaces these when
// code is eval'd; none of them block integration. Warnings come in
// source order: by line, then column, then message.
func Lint(mods []*Module, items []Item) []Warning {
	var out []Warning
	for _, m := range mods {
		out = append(out, lintItems(m.Items, m.Name)...)
	}
	out = append(out, lintItems(items, "the root module")...)
	slices.SortFunc(out, func(a, b Warning) int {
		return cmp.Or(cmp.Compare(a.Pos.Line, b.Pos.Line), cmp.Compare(a.Pos.Col, b.Pos.Col), strings.Compare(a.Msg, b.Msg))
	})
	return out
}

func lintItems(items []Item, scope string) []Warning {
	var out []Warning

	declared := map[string]Pos{}
	used := map[string]bool{}
	use := func(x Expr) {
		if name, ok := rootName(x); ok {
			used[name] = true
		}
	}
	noteUse := func(e Expr) { WalkExprs(e, use) }

	for _, it := range items {
		switch x := it.(type) {
		case *NetDecl:
			for _, dn := range x.Names {
				declared[dn.Name] = dn.NamePos
				noteUse(dn.Init)
			}
		case *ContAssign:
			noteUse(x.LHS)
			noteUse(x.RHS)
		case *Instance:
			used[x.Name] = true
			for _, c := range x.Conns {
				noteUse(c.Expr)
			}
			for _, p := range x.Params {
				noteUse(p.Expr)
			}
		case *AlwaysBlock:
			WalkStmt(x.Body, nil, use)
			for _, ev := range x.Events {
				noteUse(ev.Expr)
			}
			out = append(out, lintAlways(x, scope)...)
		case *InitialBlock:
			WalkStmt(x.Body, nil, use)
		}
	}

	for name, pos := range declared {
		if !used[name] {
			out = append(out, Warning{Pos: pos, Msg: fmt.Sprintf("%s is declared but never used in %s", name, scope)})
		}
	}
	return out
}

func lintAlways(a *AlwaysBlock, scope string) []Warning {
	var out []Warning

	edgeTriggered := false
	levelList := map[string]bool{}
	pureLevel := len(a.Events) > 0
	for _, ev := range a.Events {
		if ev.Edge != AnyEdge {
			edgeTriggered = true
			pureLevel = false
		} else if id, ok := rootName(ev.Expr); ok {
			levelList[id] = true
		}
	}

	// Classify assignments and collect reads in the body: an assignment's
	// LHS is written, not read, and a loop's init and post are its
	// control, not the block's.
	reads := map[string]Pos{}
	writes := map[string]bool{}
	var blockingPos, nonblockingPos []Pos
	read := func(x Expr) {
		if id, ok := x.(*Ident); ok {
			if _, seen := reads[id.Name]; !seen {
				reads[id.Name] = id.IdentPos
			}
		}
	}
	var stmt func(s Stmt) bool
	stmt = func(s Stmt) bool {
		switch x := s.(type) {
		case *ProcAssign:
			WalkExprs(x.RHS, read)
			if id, ok := rootName(x.LHS); ok {
				writes[id] = true
			}
			if x.Blocking {
				blockingPos = append(blockingPos, x.AssignPos)
			} else {
				nonblockingPos = append(nonblockingPos, x.AssignPos)
			}
			return false
		case *For:
			WalkExprs(x.Cond, read)
			WalkStmt(x.Body, stmt, read)
			return false
		}
		return true
	}
	WalkStmt(a.Body, stmt, read)

	if edgeTriggered && len(blockingPos) > 0 {
		out = append(out, Warning{Pos: blockingPos[0], Msg: fmt.Sprintf(
			"blocking assignment in a clocked always block in %s (use <= for registers)", scope)})
	}
	if (a.Star || pureLevel) && len(nonblockingPos) > 0 {
		out = append(out, Warning{Pos: nonblockingPos[0], Msg: fmt.Sprintf(
			"non-blocking assignment in a combinational always block in %s (use =)", scope)})
	}
	if pureLevel {
		for name, pos := range reads {
			if !levelList[name] && !writes[name] {
				out = append(out, Warning{Pos: pos, Msg: fmt.Sprintf(
					"%s is read but missing from the sensitivity list in %s (simulation and hardware may diverge; use @*)", name, scope)})
			}
		}
	}
	return out
}

// rootName names the variable an expression selects from: an
// identifier, the instance of a hierarchical name, or either under index
// and range selections.
func rootName(e Expr) (string, bool) {
	switch x := LValueRoot(e).(type) {
	case *Ident:
		return x.Name, true
	case *HierIdent:
		return x.Parts[0], true
	}
	return "", false
}
