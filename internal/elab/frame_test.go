package elab

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"testing"
)

// TestTreesHoldNoVars: a tree names its variables by index into its
// unit's frame, never by *Var, so the trees of a relocated unit are its
// base's (ElaborateFrom). Every Expr and Stmt node type — every type
// ir.go gives a Width or stmt method — and the parts they hold are
// checked for a field of type *Var or []*Var.
func TestTreesHoldNoVars(t *testing.T) {
	nodes := map[string]any{
		"Const": Const{}, "VarRef": VarRef{}, "ArrayRef": ArrayRef{}, "BitSel": BitSel{},
		"Slice": Slice{}, "Unary": Unary{}, "Binary": Binary{}, "Ternary": Ternary{},
		"Concat": Concat{}, "Repl": Repl{}, "TimeRef": TimeRef{},
		"Block": Block{}, "If": If{}, "Case": Case{}, "Assign": Assign{}, "SysTask": SysTask{},
	}
	parts := []any{LValue{}, CaseItem{}, Edge{}}

	file, err := parser.ParseFile(token.NewFileSet(), "ir.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range file.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Recv == nil || fd.Name.Name != "Width" && fd.Name.Name != "stmt" {
			continue
		}
		recv := fd.Recv.List[0].Type.(*ast.StarExpr).X.(*ast.Ident).Name
		if nodes[recv] == nil {
			t.Errorf("node type %s is not checked", recv)
		}
	}

	varType := reflect.TypeOf(Var{})
	var holds func(ty reflect.Type) bool
	holds = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Pointer:
			return ty.Elem() == varType
		case reflect.Slice, reflect.Array:
			return holds(ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if holds(ty.Field(i).Type) {
					return true
				}
			}
		}
		return false
	}
	check := func(n any) {
		ty := reflect.TypeOf(n)
		for i := 0; i < ty.NumField(); i++ {
			if f := ty.Field(i); holds(f.Type) {
				t.Errorf("%s.%s holds a variable (%s)", ty.Name(), f.Name, f.Type)
			}
		}
	}
	for _, n := range nodes {
		check(n)
	}
	for _, n := range parts {
		check(n)
	}
}
