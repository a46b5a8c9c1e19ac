package testutil

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// wallClockAllowed names the lines of clocked packages that may read
// the wall clock, each with its reason.
var wallClockAllowed = map[string]string{
	"internal/observe/profile.go:48": "a CPU profile runs for real seconds",
}

// TestClockedPackagesUseTheirClock: a package whose non-test code names
// clock.Clock or calls a Clock() method has an injected clock, so none
// of its non-test code may read time any other way — under clock.Sim a
// wall-clock read disagrees with everything else the package times.
func TestClockedPackagesUseTheirClock(t *testing.T) {
	root := filepath.Join("..", "..")
	files := map[string][]*ast.File{} // by package directory, relative to root
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "bench" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		dir, _ := filepath.Rel(root, filepath.Dir(path))
		files[filepath.ToSlash(dir)] = append(files[filepath.ToSlash(dir)], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var clocked []string
	for dir, fs := range files {
		for _, f := range fs {
			if namesClock(f) {
				clocked = append(clocked, dir)
				break
			}
		}
	}
	sort.Strings(clocked)
	for _, want := range []string{"internal/margo", "internal/raft", "internal/remi", "internal/ssg", "internal/yokan/router"} {
		if i := sort.SearchStrings(clocked, want); i == len(clocked) || clocked[i] != want {
			t.Errorf("%s not found among the clocked packages %v", want, clocked)
		}
	}

	wallClock := map[string]bool{"Now": true, "Since": true, "Until": true, "Sleep": true, "After": true,
		"AfterFunc": true, "NewTimer": true, "NewTicker": true, "Tick": true}
	used := map[string]bool{}
	for _, dir := range clocked {
		for _, f := range files[dir] {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "time" || pkg.Obj != nil || !wallClock[sel.Sel.Name] {
					return true
				}
				pos := fset.Position(sel.Pos())
				rel, _ := filepath.Rel(root, pos.Filename)
				at := fmt.Sprintf("%s:%d", filepath.ToSlash(rel), pos.Line)
				if _, ok := wallClockAllowed[at]; ok {
					used[at] = true
				} else {
					t.Errorf("%s: time.%s in a package with an injected clock", at, sel.Sel.Name)
				}
				return true
			})
		}
	}
	for at := range wallClockAllowed {
		if !used[at] {
			t.Errorf("allow-list entry %s matches no wall-clock read", at)
		}
	}
}

// namesClock reports whether f names clock.Clock or calls a Clock()
// method.
func namesClock(f *ast.File) bool {
	found := false
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if pkg, ok := n.X.(*ast.Ident); ok && pkg.Name == "clock" && n.Sel.Name == "Clock" {
				found = true
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Clock" && len(n.Args) == 0 {
				found = true
			}
		}
		return !found
	})
	return found
}
