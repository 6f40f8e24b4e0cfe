package verilog

// WalkStmt visits s and its sub-statements in pre-order, calling fs on
// each statement and handing every expression a statement holds to
// WalkExprs(e, fe): an If's condition, then its branches; a Case's
// subject, then each item's labels followed by its body; a ProcAssign's
// LHS, then its RHS; a For's init, condition, post and body; a SysTask's
// arguments. fs returning false prunes the statement: neither its
// expressions nor its sub-statements are visited. fs and fe may be nil.
//
// It is the one spelling of the statement grammar for the readers of the
// parsed source (lint, metrics, the IR's hierarchical references); a new
// statement kind is added here.
func WalkStmt(s Stmt, fs func(Stmt) bool, fe func(Expr)) {
	if s == nil || fs != nil && !fs(s) {
		return
	}
	we := func(e Expr) {
		if fe != nil {
			WalkExprs(e, fe)
		}
	}
	switch x := s.(type) {
	case *Block:
		for _, st := range x.Stmts {
			WalkStmt(st, fs, fe)
		}
	case *If:
		we(x.Cond)
		WalkStmt(x.Then, fs, fe)
		WalkStmt(x.Else, fs, fe)
	case *Case:
		we(x.Subject)
		for _, it := range x.Items {
			for _, e := range it.Exprs {
				we(e)
			}
			WalkStmt(it.Body, fs, fe)
		}
	case *ProcAssign:
		we(x.LHS)
		we(x.RHS)
	case *For:
		WalkStmt(x.Init, fs, fe)
		we(x.Cond)
		WalkStmt(x.Post, fs, fe)
		WalkStmt(x.Body, fs, fe)
	case *SysTask:
		for _, a := range x.Args {
			we(a)
		}
	}
}

// LValueRoot returns the variable an lvalue-shaped expression selects
// from: e itself, or the base of its index and range selections.
func LValueRoot(e Expr) Expr {
	for {
		switch x := e.(type) {
		case *Index:
			e = x.X
		case *RangeSel:
			e = x.X
		default:
			return e
		}
	}
}
