package lint

import (
	"go/ast"
	"go/token"
	"slices"
	"strings"
)

// testOnly flags exported API under an internal/ directory that no non-test
// file in the tree uses. Such a name is kept alive only by its own tests:
// it costs reading and upkeep, and its tests exercise a path production
// never takes. The names in use come from every non-test file under the
// Runner's Root, whatever the patterns, so linting ./internal/... alone
// still sees what cmd/ and perfbench/ call.
//
// Use is matched by name, not by type, as the other checks match: any
// identifier spelled the same in a non-test file counts, so the check can
// miss a dead name but never flags a live one. Interface method names
// count as uses, since a method can be reached through the interface.
type testOnly struct {
	used map[string]bool
}

// NewTestOnly builds the check.
func NewTestOnly() Analyzer { return &testOnly{} }

func (t *testOnly) Name() string { return "testonly" }

func (t *testOnly) Doc() string {
	return "an exported func, method, type, var, const or untagged struct field declared " +
		"under an internal/ directory must be used by some non-test file under the root: " +
		"delete it, unexport it, or move its tests to the entry point production calls. " +
		"A deliberate test seam carries a reasoned //lint:ignore."
}

// module records every name a non-test file uses.
func (t *testOnly) module(pkgs []*Package) {
	t.used = map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			if f.Test {
				continue
			}
			decl := declaredIdents(f.Ast)
			ast.Inspect(f.Ast, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !decl[id] {
					t.used[id.Name] = true
				}
				return true
			})
		}
	}
}

func (t *testOnly) Check(pkg *Package) []Finding {
	if !slices.Contains(strings.Split(pkg.Dir, "/"), "internal") {
		return nil
	}
	var fs []Finding
	flag := func(id *ast.Ident, kind string) {
		if id.IsExported() && !t.used[id.Name] {
			fs = append(fs, pkg.Findingf(t.Name(), id.Pos(),
				"exported %s %s is used only by tests: delete it, unexport it, or test the entry point production calls", kind, id.Name))
		}
	}
	for _, f := range pkg.Files {
		if f.Test {
			continue
		}
		for _, d := range f.Ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil {
					flag(d.Name, "method")
				} else {
					flag(d.Name, "func")
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						flag(s.Name, "type")
						ast.Inspect(s.Type, func(n ast.Node) bool {
							st, ok := n.(*ast.StructType)
							if !ok {
								return true
							}
							for _, field := range st.Fields.List {
								if field.Tag != nil {
									continue
								}
								for _, name := range field.Names {
									flag(name, "field")
								}
							}
							return true
						})
					case *ast.ValueSpec:
						kind := "var"
						if d.Tok == token.CONST {
							kind = "const"
						}
						for _, name := range s.Names {
							flag(name, kind)
						}
					}
				}
			}
		}
	}
	return fs
}

// declaredIdents returns the identifiers of a file that name a declaration
// rather than use one: funcs and methods, types, vars and consts, and
// struct fields. Interface methods are left out, so they count as uses.
func declaredIdents(af *ast.File) map[*ast.Ident]bool {
	decl := map[*ast.Ident]bool{}
	ast.Inspect(af, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncDecl:
			decl[x.Name] = true
		case *ast.TypeSpec:
			decl[x.Name] = true
		case *ast.ValueSpec:
			for _, id := range x.Names {
				decl[id] = true
			}
		case *ast.StructType:
			for _, field := range x.Fields.List {
				for _, id := range field.Names {
					decl[id] = true
				}
			}
		}
		return true
	})
	return decl
}
