package roadcrash

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// module is the import path prefix of every package in this repository,
// perfbench included: perfbench imports the packages through a replace.
const module = "roadcrash/"

// exemptMethods are called by the standard library through an interface,
// so no selector in the repository needs to name them.
var exemptMethods = map[string]bool{
	"Error":         true,
	"String":        true,
	"Unwrap":        true,
	"MarshalJSON":   true,
	"UnmarshalJSON": true,
	"ServeHTTP":     true,
}

type goFile struct {
	dir  string // slash-separated, relative to the repository root
	test bool
	ast  *ast.File
}

// TestEveryInternalFunctionHasACaller fails on any exported function or
// method declared in a non-test file under internal/ that has no caller
// outside its own package's tests. A caller is a use in any non-test file
// (programs, examples, perfbench or library code) or in another package's
// tests. Package-level functions are resolved through each file's imports.
// Methods are matched by name only, so a dead method that shares its name
// with a live one goes unreported.
func TestEveryInternalFunctionHasACaller(t *testing.T) {
	fset := token.NewFileSet()
	var files []goFile
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, goFile{
			dir:  filepath.ToSlash(filepath.Dir(p)),
			test: strings.HasSuffix(p, "_test.go"),
			ast:  f,
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	pkgName := map[string]string{} // dir -> package clause of its non-test files
	for _, f := range files {
		if !f.test {
			pkgName[f.dir] = f.ast.Name.Name
		}
	}

	// A package-level function is keyed by dir + "." + name. A method is
	// keyed by name; it is used when a non-test file names it, or a test
	// file of another directory does.
	used := map[string]bool{}
	methodUsed := map[string]bool{}
	methodTestDirs := map[string]map[string]bool{}
	for _, f := range files {
		// imports maps a local package name to its dir in this repository,
		// or to "" for a package outside it, such as math.
		imports := map[string]string{}
		for _, imp := range f.ast.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatalf("%s: %v", fset.Position(imp.Pos()), err)
			}
			dir, name := "", path.Base(p)
			if strings.HasPrefix(p, module) {
				dir = strings.TrimPrefix(p, module)
				name = pkgName[dir]
			}
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = dir
		}
		self := "" // the function being walked: recursion is not a caller
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := n.X.(*ast.Ident); ok {
					if dir, ok := imports[id.Name]; ok {
						if dir != "" && (!f.test || dir != f.dir) {
							used[dir+"."+n.Sel.Name] = true
						}
						return false
					}
				}
				name := n.Sel.Name
				if !f.test {
					methodUsed[name] = true
				} else {
					if methodTestDirs[name] == nil {
						methodTestDirs[name] = map[string]bool{}
					}
					methodTestDirs[name][f.dir] = true
				}
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				if key := f.dir + "." + n.Name; !f.test && key != self {
					used[key] = true
				}
			}
			return true
		}
		for _, d := range f.ast.Decls {
			self = ""
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				ast.Inspect(d, visit)
				continue
			}
			if fd.Recv == nil {
				self = f.dir + "." + fd.Name.Name
			}
			if fd.Body != nil {
				ast.Inspect(fd.Body, visit)
			}
		}
	}

	var uncalled []string
	for _, f := range files {
		if f.test || !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		for _, d := range f.ast.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			name := fd.Name.Name
			if fd.Recv == nil {
				if used[f.dir+"."+name] {
					continue
				}
			} else {
				if exemptMethods[name] || methodUsed[name] {
					continue
				}
				calledElsewhere := false
				for dir := range methodTestDirs[name] {
					if dir != f.dir {
						calledElsewhere = true
					}
				}
				if calledElsewhere {
					continue
				}
			}
			pos := fset.Position(fd.Name.Pos())
			uncalled = append(uncalled, pos.Filename+":"+strconv.Itoa(pos.Line)+": "+name)
		}
	}
	sort.Strings(uncalled)
	for _, u := range uncalled {
		t.Errorf("%s has no caller outside its own package's tests", u)
	}
}
