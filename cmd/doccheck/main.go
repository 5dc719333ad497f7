// Command doccheck enforces godoc coverage: every exported identifier in
// the given packages must carry a doc comment. CI runs it over every
// package under internal/:
//
//	go run ./cmd/doccheck $(go list ./internal/... | sed 's|^roadcrash/||')
//
// A declaration is considered documented when the declaration group, the
// spec, or a trailing line comment explains it — matching how godoc
// renders grouped const/var blocks. Methods on unexported receivers and
// test files are exempt. Exit status 1 lists every undocumented
// identifier as file:line.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: doccheck <package dir> ...")
		os.Exit(2)
	}
	bad := 0
	for _, dir := range os.Args[1:] {
		misses, err := check(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
			os.Exit(2)
		}
		for _, m := range misses {
			fmt.Println(m)
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d exported identifiers lack doc comments\n", bad)
		os.Exit(1)
	}
}

// check parses one package directory and returns a file:line message per
// undocumented exported identifier.
func check(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var misses []string
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		misses = append(misses, fmt.Sprintf("%s:%d: %s %s has no doc comment", filepath.ToSlash(p.Filename), p.Line, kind, name))
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() || !exportedReceiver(d) {
						continue
					}
					if d.Doc == nil {
						kind := "function"
						if d.Recv != nil {
							kind = "method"
						}
						report(d.Pos(), kind, d.Name.Name)
					}
				case *ast.GenDecl:
					checkGenDecl(d, report)
				}
			}
		}
	}
	return misses, nil
}

// exportedReceiver reports whether a function's receiver type (if any) is
// exported; methods on unexported types are not part of the API surface.
func exportedReceiver(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return true
		}
	}
}

// checkGenDecl walks a const/var/type declaration. A spec is documented
// when it has its own doc, a trailing line comment, or — for grouped
// const/var blocks — when the block itself carries a doc comment.
func checkGenDecl(d *ast.GenDecl, report func(pos token.Pos, kind, name string)) {
	groupDoc := d.Doc != nil
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && s.Doc == nil && s.Comment == nil && !(groupDoc && len(d.Specs) == 1) {
				report(s.Pos(), "type", s.Name.Name)
			}
		case *ast.ValueSpec:
			documented := groupDoc || s.Doc != nil || s.Comment != nil
			for _, name := range s.Names {
				if name.IsExported() && !documented {
					kind := "var"
					if d.Tok == token.CONST {
						kind = "const"
					}
					report(name.Pos(), kind, name.Name)
				}
			}
		}
	}
}
