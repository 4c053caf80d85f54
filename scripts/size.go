//go:build ignore

// Command size prints the two size metrics ROADMAP tracks beside the
// benchmark numbers, so that no PR has to recount them by hand:
//
//   - non-test Go lines (every line of every .go file that is not a
//     _test.go file and not under a testdata directory), for the root
//     module and for bench/ separately;
//   - exported symbols of the root module's non-main packages, counted
//     on the syntax tree: exported top-level functions, types,
//     constants and variables, plus exported methods on exported
//     receivers. Struct fields and interface methods are not counted.
//
// Files carrying "//go:build ignore" (tooling such as this one) are
// counted on a row of their own. scripts/size.sh runs it on this
// checkout; an argument names another one (a copy of the parent commit,
// to state a PR's deltas). It gates nothing.
package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	var rootLines, benchLines, toolLines, exported int
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		lines := bytes.Count(src, []byte("\n"))
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, src, parser.ParseComments)
		if err != nil {
			return err
		}
		switch {
		case buildIgnored(f):
			toolLines += lines
		case strings.HasPrefix(filepath.ToSlash(rel), "bench/"):
			benchLines += lines
		default:
			rootLines += lines
			if f.Name.Name != "main" {
				exported += exportedDecls(f)
			}
		}
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "size:", err)
		os.Exit(1)
	}
	fmt.Printf("non-test Go lines, root module: %d\n", rootLines)
	fmt.Printf("non-test Go lines, bench/:      %d\n", benchLines)
	fmt.Printf("go:build ignore tooling lines:  %d\n", toolLines)
	fmt.Printf("exported symbols, root module:  %d\n", exported)
}

// buildIgnored reports whether the file opts out of every build with a
// "//go:build ignore" line ahead of its package clause.
func buildIgnored(f *ast.File) bool {
	for _, g := range f.Comments {
		if g.Pos() >= f.Package {
			break
		}
		for _, c := range g.List {
			if strings.TrimSpace(c.Text) == "//go:build ignore" {
				return true
			}
		}
	}
	return false
}

// exportedDecls counts the file's exported top-level names and its
// exported methods on exported receivers.
func exportedDecls(f *ast.File) int {
	n := 0
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && (d.Recv == nil || receiverExported(d.Recv)) {
				n++
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						n++
					}
				case *ast.ValueSpec:
					for _, name := range s.Names {
						if name.IsExported() {
							n++
						}
					}
				}
			}
		}
	}
	return n
}

// receiverExported reports whether a method's receiver type, stripped
// of its pointer and type parameters, is an exported name.
func receiverExported(recv *ast.FieldList) bool {
	if len(recv.List) != 1 {
		return false
	}
	t := recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return false
		}
	}
}
