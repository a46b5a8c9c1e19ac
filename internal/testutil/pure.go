package testutil

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
)

// reporter is failer plus the non-fatal report: CheckPure lists every
// violation, not just the first.
type reporter interface {
	failer
	Errorf(format string, args ...any)
}

// CheckPure keeps a protocol core a pure state machine. The Go source
// file may import only the allowed packages — ones that cannot reach a
// clock, a lock, a goroutine or the network — under their own names,
// must not start a goroutine, must not read the wall clock through the
// time package (Time and Duration values only), and must not draw from
// math/rand's global source (the injected *rand.Rand only).
func CheckPure(t reporter, file string, allowed ...string) {
	t.Helper()
	// Selectors on an allowed package that are still off limits.
	allowedSel := map[string]map[string]bool{
		"time": {"Time": true, "Duration": true},
		"rand": {"Rand": true},
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, nil, 0)
	if err != nil {
		t.Fatalf("%v", err)
	}
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		ok := false
		for _, a := range allowed {
			ok = ok || a == path
		}
		if !ok {
			t.Errorf("%s: %s imports %q", fset.Position(imp.Pos()), file, path)
		}
		if imp.Name != nil {
			t.Errorf("%s: renamed import %q defeats this check", fset.Position(imp.Pos()), path)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			t.Errorf("%s: %s starts a goroutine", fset.Position(n.Pos()), file)
		case *ast.SelectorExpr:
			pkg, ok := n.X.(*ast.Ident)
			if !ok || pkg.Obj != nil { // a local identifier shadows the package name
				return true
			}
			if sels, limited := allowedSel[pkg.Name]; limited && !sels[n.Sel.Name] {
				t.Errorf("%s: %s uses %s.%s", fset.Position(n.Pos()), file, pkg.Name, n.Sel.Name)
			}
		}
		return true
	})
}
