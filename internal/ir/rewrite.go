package ir

import (
	"slices"

	"cascade/internal/bits"
	"cascade/internal/verilog"
)

// exprRewriter maps expressions bottom-up; the hook runs on leaf
// identifier forms (Ident, HierIdent) and may return a replacement.
//
// Rewriting is copy-on-write: a node none of whose parts the hook
// changed is returned as it is, so an item a rewrite leaves alone keeps
// its identity. Synthesis relocates a unit of an earlier netlist by the
// identity of the item it was elaborated from (netlist.CompileFrom), so
// a root item an eval did not touch must be the same object in the next
// version; the tree is never mutated after parse, so sharing is safe.
type exprRewriter func(e verilog.Expr) verilog.Expr

func rewriteExpr(e verilog.Expr, f exprRewriter) verilog.Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *verilog.Ident, *verilog.HierIdent:
		return f(e)
	case *verilog.Number, *verilog.StringLit:
		return e
	case *verilog.Unary:
		if nx := rewriteExpr(x.X, f); nx != x.X {
			return &verilog.Unary{OpPos: x.OpPos, Op: x.Op, X: nx}
		}
	case *verilog.Binary:
		if nx, ny := rewriteExpr(x.X, f), rewriteExpr(x.Y, f); nx != x.X || ny != x.Y {
			return &verilog.Binary{OpPos: x.OpPos, Op: x.Op, X: nx, Y: ny}
		}
	case *verilog.Ternary:
		c, t, el := rewriteExpr(x.Cond, f), rewriteExpr(x.Then, f), rewriteExpr(x.Else, f)
		if c != x.Cond || t != x.Then || el != x.Else {
			return &verilog.Ternary{QPos: x.QPos, Cond: c, Then: t, Else: el}
		}
	case *verilog.Index:
		if nx, ni := rewriteExpr(x.X, f), rewriteExpr(x.Idx, f); nx != x.X || ni != x.Idx {
			return &verilog.Index{LPos: x.LPos, X: nx, Idx: ni}
		}
	case *verilog.RangeSel:
		nx, hi, lo := rewriteExpr(x.X, f), rewriteExpr(x.Hi, f), rewriteExpr(x.Lo, f)
		if nx != x.X || hi != x.Hi || lo != x.Lo {
			return &verilog.RangeSel{LPos: x.LPos, X: nx, Hi: hi, Lo: lo}
		}
	case *verilog.Concat:
		if parts, changed := rewriteExprs(x.Parts, f); changed {
			return &verilog.Concat{LPos: x.LPos, Parts: parts}
		}
	case *verilog.Repl:
		if c, nx := rewriteExpr(x.Count, f), rewriteExpr(x.X, f); c != x.Count || nx != x.X {
			return &verilog.Repl{LPos: x.LPos, Count: c, X: nx}
		}
	case *verilog.SysCall:
		if args, changed := rewriteExprs(x.Args, f); changed {
			return &verilog.SysCall{CallPos: x.CallPos, Name: x.Name, Args: args}
		}
	}
	return e
}

// rewriteExprs rewrites each of xs, copying the slice only if one changed.
func rewriteExprs(xs []verilog.Expr, f exprRewriter) ([]verilog.Expr, bool) {
	for i, x := range xs {
		nx := rewriteExpr(x, f)
		if nx == x {
			continue
		}
		out := make([]verilog.Expr, len(xs))
		copy(out, xs[:i])
		out[i] = nx
		for j := i + 1; j < len(xs); j++ {
			out[j] = rewriteExpr(xs[j], f)
		}
		return out, true
	}
	return xs, false
}

func rewriteRange(r *verilog.Range, f exprRewriter) *verilog.Range {
	if r == nil {
		return nil
	}
	if hi, lo := rewriteExpr(r.Hi, f), rewriteExpr(r.Lo, f); hi != r.Hi || lo != r.Lo {
		return &verilog.Range{Hi: hi, Lo: lo}
	}
	return r
}

func rewriteStmt(s verilog.Stmt, f exprRewriter) verilog.Stmt {
	switch x := s.(type) {
	case nil:
		return nil
	case *verilog.Block:
		for i, st := range x.Stmts {
			ns := rewriteStmt(st, f)
			if ns == st {
				continue
			}
			out := &verilog.Block{BeginPos: x.BeginPos, Stmts: make([]verilog.Stmt, len(x.Stmts))}
			copy(out.Stmts, x.Stmts[:i])
			out.Stmts[i] = ns
			for j := i + 1; j < len(x.Stmts); j++ {
				out.Stmts[j] = rewriteStmt(x.Stmts[j], f)
			}
			return out
		}
	case *verilog.If:
		c, t, el := rewriteExpr(x.Cond, f), rewriteStmt(x.Then, f), rewriteStmt(x.Else, f)
		if c != x.Cond || t != x.Then || el != x.Else {
			return &verilog.If{IfPos: x.IfPos, Cond: c, Then: t, Else: el}
		}
	case *verilog.Case:
		subj := rewriteExpr(x.Subject, f)
		var items []*verilog.CaseItem // x.Items until an arm changes
		for i, it := range x.Items {
			exprs, ch := rewriteExprs(it.Exprs, f)
			if body := rewriteStmt(it.Body, f); ch || body != it.Body {
				if items == nil {
					items = slices.Clone(x.Items)
				}
				items[i] = &verilog.CaseItem{ItemPos: it.ItemPos, Exprs: exprs, Body: body}
			}
		}
		if subj != x.Subject || items != nil {
			if items == nil {
				items = x.Items
			}
			return &verilog.Case{CasePos: x.CasePos, IsCasez: x.IsCasez, Subject: subj, Items: items}
		}
	case *verilog.ProcAssign:
		if l, r := rewriteExpr(x.LHS, f), rewriteExpr(x.RHS, f); l != x.LHS || r != x.RHS {
			return &verilog.ProcAssign{AssignPos: x.AssignPos, Blocking: x.Blocking, LHS: l, RHS: r}
		}
	case *verilog.For:
		init, post := rewriteStmt(x.Init, f).(*verilog.ProcAssign), rewriteStmt(x.Post, f).(*verilog.ProcAssign)
		c, body := rewriteExpr(x.Cond, f), rewriteStmt(x.Body, f)
		if init != x.Init || post != x.Post || c != x.Cond || body != x.Body {
			return &verilog.For{ForPos: x.ForPos, Init: init, Cond: c, Post: post, Body: body}
		}
	case *verilog.SysTask:
		if args, changed := rewriteExprs(x.Args, f); changed {
			return &verilog.SysTask{TaskPos: x.TaskPos, Name: x.Name, Args: args}
		}
	}
	return s
}

func rewriteItem(it verilog.Item, f exprRewriter) verilog.Item {
	switch x := it.(type) {
	case *verilog.NetDecl:
		rng := rewriteRange(x.Range, f)
		var names []*verilog.DeclName // x.Names until a name changes
		for i, dn := range x.Names {
			name, arr, init := renameIdent(dn.Name, f), rewriteRange(dn.Array, f), rewriteExpr(dn.Init, f)
			if name != dn.Name || arr != dn.Array || init != dn.Init {
				if names == nil {
					names = slices.Clone(x.Names)
				}
				names[i] = &verilog.DeclName{NamePos: dn.NamePos, Name: name, Array: arr, Init: init}
			}
		}
		if rng != x.Range || names != nil {
			if names == nil {
				names = x.Names
			}
			return &verilog.NetDecl{DeclPos: x.DeclPos, Kind: x.Kind, Range: rng, Names: names}
		}
	case *verilog.ParamDecl:
		if rng, v := rewriteRange(x.Range, f), rewriteExpr(x.Value, f); rng != x.Range || v != x.Value {
			return &verilog.ParamDecl{DeclPos: x.DeclPos, Local: x.Local, Range: rng, Name: x.Name, Value: v}
		}
	case *verilog.ContAssign:
		if l, r := rewriteExpr(x.LHS, f), rewriteExpr(x.RHS, f); l != x.LHS || r != x.RHS {
			return &verilog.ContAssign{AssignPos: x.AssignPos, LHS: l, RHS: r}
		}
	case *verilog.AlwaysBlock:
		body := rewriteStmt(x.Body, f)
		var events []verilog.Event // x.Events until one changes
		for i, ev := range x.Events {
			if e := rewriteExpr(ev.Expr, f); e != ev.Expr {
				if events == nil {
					events = slices.Clone(x.Events)
				}
				events[i].Expr = e
			}
		}
		if body != x.Body || events != nil {
			if events == nil {
				events = x.Events
			}
			return &verilog.AlwaysBlock{AlwaysPos: x.AlwaysPos, Star: x.Star, Events: events, Body: body}
		}
	case *verilog.InitialBlock:
		if body := rewriteStmt(x.Body, f); body != x.Body {
			return &verilog.InitialBlock{InitialPos: x.InitialPos, Body: body}
		}
	case *verilog.Instance:
		var params []*verilog.ParamAssign // x.Params until one changes
		for i, pa := range x.Params {
			if e := rewriteExpr(pa.Expr, f); e != pa.Expr {
				if params == nil {
					params = slices.Clone(x.Params)
				}
				params[i] = &verilog.ParamAssign{Name: pa.Name, Expr: e}
			}
		}
		var conns []*verilog.PortConn // x.Conns until one changes
		for i, c := range x.Conns {
			if e := rewriteExpr(c.Expr, f); e != c.Expr {
				if conns == nil {
					conns = slices.Clone(x.Conns)
				}
				conns[i] = &verilog.PortConn{ConnPos: c.ConnPos, Name: c.Name, Expr: e}
			}
		}
		if params != nil || conns != nil {
			if params == nil {
				params = x.Params
			}
			if conns == nil {
				conns = x.Conns
			}
			return &verilog.Instance{InstPos: x.InstPos, ModName: x.ModName, Name: x.Name, Params: params, Conns: conns}
		}
	}
	return it
}

// renameIdent applies the rewriter to a bare declared name by round-
// tripping it through an Ident node.
func renameIdent(name string, f exprRewriter) string {
	if out, ok := f(&verilog.Ident{Name: name}).(*verilog.Ident); ok {
		return out.Name
	}
	return name
}

// substParams returns a rewriter that replaces parameter identifiers with
// literal values; other identifiers pass through a second rewriter.
func substParams(env map[string]*bits.Vector, then exprRewriter) exprRewriter {
	return func(e verilog.Expr) verilog.Expr {
		if id, ok := e.(*verilog.Ident); ok {
			if v, bound := env[id.Name]; bound {
				return numberOf(v)
			}
		}
		if then != nil {
			return then(e)
		}
		return e
	}
}

// numberOf renders a bit vector as a sized literal AST node.
func numberOf(v *bits.Vector) *verilog.Number {
	return &verilog.Number{Literal: v.String(), Val: v, Sized: true}
}
