package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestCoreReachesNoSQL: core ranks off the loader's memberships and the
// event space, never through the SQL executor. Every call of DB() in the
// package's non-test files reads DB().Space() and nothing else, and none
// asks the loader for a SQL view (ViewFor). The structural twin of
// internal/serve/shard's TestServedPathReadsNoExecutorRows, which counts
// the executor's rows on the wire.
func TestCoreReachesNoSQL(t *testing.T) {
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	parsed := 0
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		parsed++
		// spaceReads are the DB() calls whose result is read only for its
		// event space.
		spaceReads := make(map[*ast.CallExpr]bool)
		var dbCalls []*ast.CallExpr
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if call, ok := n.X.(*ast.CallExpr); ok && calls(call, "DB") && n.Sel.Name == "Space" {
					spaceReads[call] = true
				}
			case *ast.CallExpr:
				switch {
				case calls(n, "DB"):
					dbCalls = append(dbCalls, n)
				case calls(n, "ViewFor"):
					t.Errorf("%s: ViewFor compiles a SQL view", fset.Position(n.Pos()))
				}
			}
			return true
		})
		for _, call := range dbCalls {
			if !spaceReads[call] {
				t.Errorf("%s: DB() is used for more than its event space", fset.Position(call.Pos()))
			}
		}
	}
	if parsed == 0 {
		t.Fatal("no non-test files parsed")
	}
}

// calls reports whether call calls a function or method named name.
func calls(call *ast.CallExpr, name string) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == name
	case *ast.SelectorExpr:
		return fun.Sel.Name == name
	}
	return false
}
