// Package lint is a repo-native static-analysis framework: a small analyzer
// harness built on the standard library's go/parser, go/ast, and go/token —
// no x/tools dependency, so it runs in the offline build environment — plus
// the repo-specific checks that guard invariants no general-purpose linter
// knows about.
//
// The invariants are the ones this codebase lives or dies on. Campaign
// timing is measured on per-workcell virtual clocks, so a single stray
// time.Now in a scheduler path silently corrupts every makespan and speedup
// number the fleet reports (wallclock). The portal's crash-safety rests on
// a strict write→fsync→rename ordering and on never dropping a Close/Sync
// error on a write path (durability). Test goroutines must not call t.Fatal
// (goroutine-fatal), error sentinels must be matched with errors.Is so
// wrapping survives (sentinel-compare), contexts flow through call chains,
// not into struct fields (ctx-discipline), and exported API under internal/
// has a caller outside the tests (testonly).
//
// Analyzers run per package directory and report Findings. An analyzer
// that needs a fact about the whole tree (testonly needs every name the
// tree uses) also gets a module-scope step: before any package is checked,
// it sees every package under the Runner's Root, whatever the patterns, so
// narrowing the patterns narrows only where findings are reported. A
// finding can be suppressed at the offending line with a reasoned directive:
//
//	//lint:ignore <check>[,<check>...] <reason>
//
// placed either at the end of the offending line or on its own line
// directly above it. The reason is mandatory; a directive without one (or
// naming a check that does not exist) is itself reported under the
// reserved check name "archlint".
//
// The cmd/archlint CLI drives the default analyzer set over the tree and
// exits non-zero on findings; see docs/LINT.md for the policy each check
// enforces and for a guide to writing a new analyzer.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one rule violation at a source position. File is
// slash-separated and relative to the Runner's root, so output is stable no
// matter where the tool is invoked from.
type Finding struct {
	Check   string `json:"check"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Check, f.Message)
}

// File is one parsed source file as presented to analyzers.
type File struct {
	Path string // slash-separated, relative to the Runner root
	Test bool   // strings.HasSuffix(Path, "_test.go")
	Ast  *ast.File

	// ignore[line][check] records which checks a //lint:ignore directive
	// suppresses on which lines; applied by the Runner after analyzers run.
	ignore map[int]map[string]bool
	// directives holds every parsed (or malformed) directive for hygiene
	// validation.
	directives []directive
}

// Package is one directory's worth of parsed files. Analyzers get the whole
// package so cross-file, package-scope facts (exported Err sentinels, say)
// are visible.
type Package struct {
	Dir   string // slash-separated, relative to the Runner root
	Fset  *token.FileSet
	Files []*File
}

// Pos converts a token position into the File/Line/Col of a Finding.
func (p *Package) Pos(pos token.Pos) (file string, line, col int) {
	pp := p.Fset.Position(pos)
	return filepath.ToSlash(pp.Filename), pp.Line, pp.Column
}

// Findingf constructs a Finding for check at pos.
func (p *Package) Findingf(check string, pos token.Pos, format string, args ...any) Finding {
	file, line, col := p.Pos(pos)
	return Finding{Check: check, File: file, Line: line, Col: col,
		Message: fmt.Sprintf(format, args...)}
}

// Analyzer is one check. Check inspects a package and returns its findings;
// it must not filter for suppressions itself — the Runner does that, so
// every analyzer gets directive handling for free.
type Analyzer interface {
	Name() string
	Doc() string
	Check(pkg *Package) []Finding
}

// directive is one //lint:ignore occurrence.
type directive struct {
	pos    token.Pos
	checks []string
	reason string
	bad    string // non-empty if the directive is malformed
}

// DirectiveCheck is the reserved check name under which malformed or
// unknown-check //lint:ignore directives are reported.
const DirectiveCheck = "archlint"

// Runner loads packages and drives analyzers over them.
type Runner struct {
	// Root anchors all patterns and reported paths. Empty means the current
	// directory. For the wallclock and durability package scopes to apply,
	// Root must be the repository root (cmd/archlint is run from there).
	Root string
	// Analyzers is the full registry; directive validation accepts any name
	// in it even when Enable narrows what actually runs.
	Analyzers []Analyzer
	// Enable, when non-nil, restricts which analyzers run.
	Enable map[string]bool
}

// Run expands patterns ("./...", "dir/...", or plain directories, relative
// to Root), loads each package, runs the enabled analyzers, validates
// //lint:ignore directives, filters suppressed findings, and returns the
// remainder sorted by position.
func (r *Runner) Run(patterns ...string) ([]Finding, error) {
	dirs, err := r.expand(patterns)
	if err != nil {
		return nil, err
	}
	known := map[string]bool{DirectiveCheck: true}
	var enabled []Analyzer
	for _, a := range r.Analyzers {
		known[a.Name()] = true
		if r.Enable == nil || r.Enable[a.Name()] {
			enabled = append(enabled, a)
		}
	}
	loaded, err := r.moduleStep(enabled)
	if err != nil {
		return nil, err
	}
	var all []Finding
	for _, dir := range dirs {
		pkg := loaded[dir]
		if pkg == nil {
			if pkg, err = r.load(dir); err != nil {
				return nil, err
			}
		}
		if len(pkg.Files) == 0 {
			continue
		}
		for _, a := range enabled {
			all = append(all, a.Check(pkg)...)
		}
		all = append(all, validateDirectives(pkg, known)...)
		all = filterSuppressed(pkg, all)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Check < b.Check
	})
	return all, nil
}

// moduleAnalyzer is an Analyzer that needs a fact about the whole tree
// before it checks any one package: module sees every package under Root,
// whatever the patterns, and runs once before the first Check.
type moduleAnalyzer interface {
	Analyzer
	module(pkgs []*Package)
}

// moduleStep loads every package under Root and hands them to the enabled
// module analyzers, returning them by directory so Run need not parse them
// again. It loads nothing when none is enabled.
func (r *Runner) moduleStep(enabled []Analyzer) (map[string]*Package, error) {
	var mods []moduleAnalyzer
	for _, a := range enabled {
		if m, ok := a.(moduleAnalyzer); ok {
			mods = append(mods, m)
		}
	}
	if len(mods) == 0 {
		return nil, nil
	}
	dirs, err := r.expand([]string{"./..."})
	if err != nil {
		return nil, err
	}
	loaded := make(map[string]*Package, len(dirs))
	pkgs := make([]*Package, 0, len(dirs))
	for _, dir := range dirs {
		pkg, err := r.load(dir)
		if err != nil {
			return nil, err
		}
		loaded[dir] = pkg
		pkgs = append(pkgs, pkg)
	}
	for _, m := range mods {
		m.module(pkgs)
	}
	return loaded, nil
}

// expand resolves patterns into the sorted set of package directories.
func (r *Runner) expand(patterns []string) ([]string, error) {
	root := r.Root
	if root == "" {
		root = "."
	}
	seen := map[string]bool{}
	var dirs []string
	add := func(rel string) {
		rel = path.Clean(filepath.ToSlash(rel))
		if !seen[rel] {
			seen[rel] = true
			dirs = append(dirs, rel)
		}
	}
	for _, pat := range patterns {
		pat = filepath.ToSlash(pat)
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			base := path.Clean(strings.TrimSuffix(rest, "/"))
			if base == "" || base == "." || base == "./" {
				base = "."
			}
			err := filepath.WalkDir(filepath.Join(root, filepath.FromSlash(base)),
				func(p string, d os.DirEntry, err error) error {
					if err != nil {
						return err
					}
					if d.IsDir() {
						if skipDir(d.Name(), p, root) {
							return filepath.SkipDir
						}
						return nil
					}
					if strings.HasSuffix(d.Name(), ".go") {
						rel, err := filepath.Rel(root, filepath.Dir(p))
						if err != nil {
							return err
						}
						add(rel)
					}
					return nil
				})
			if err != nil {
				return nil, fmt.Errorf("archlint: expand %s: %w", pat, err)
			}
			continue
		}
		add(pat)
	}
	sort.Strings(dirs)
	return dirs, nil
}

// skipDir excludes directories that must never be linted: hidden trees
// (.git), vendored code, and testdata (lint's own fixtures deliberately
// violate every check).
func skipDir(name, full, root string) bool {
	if full == root || full == "." {
		return false
	}
	return strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor"
}

// load parses every .go file in one directory (non-recursive).
func (r *Runner) load(dir string) (*Package, error) {
	root := r.Root
	if root == "" {
		root = "."
	}
	entries, err := os.ReadDir(filepath.Join(root, filepath.FromSlash(dir)))
	if err != nil {
		return nil, fmt.Errorf("archlint: %w", err)
	}
	pkg := &Package{Dir: dir, Fset: token.NewFileSet()}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		rel := path.Join(dir, e.Name())
		src, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(rel)))
		if err != nil {
			return nil, fmt.Errorf("archlint: %w", err)
		}
		// Parse under the relative name so positions come out Runner-root
		// relative with no post-processing.
		af, err := parser.ParseFile(pkg.Fset, rel, src, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("archlint: parse: %w", err)
		}
		f := &File{
			Path: rel,
			Test: strings.HasSuffix(e.Name(), "_test.go"),
			Ast:  af,
		}
		f.ignore, f.directives = parseDirectives(pkg.Fset, af, src)
		pkg.Files = append(pkg.Files, f)
	}
	return pkg, nil
}

// parseDirectives scans a file's comments for //lint:ignore directives and
// computes which source lines each one suppresses: the directive's own line
// when it trails code, otherwise the first line after its comment group.
func parseDirectives(fset *token.FileSet, af *ast.File, src []byte) (map[int]map[string]bool, []directive) {
	ignore := map[int]map[string]bool{}
	var dirs []directive
	for _, group := range af.Comments {
		for _, c := range group.List {
			text := c.Text
			if !strings.HasPrefix(text, "//") {
				continue // block comments don't carry directives
			}
			body, ok := strings.CutPrefix(strings.TrimSpace(text[2:]), "lint:ignore")
			if !ok {
				continue
			}
			d := directive{pos: c.Pos()}
			fields := strings.Fields(body)
			if (body != "" && body[0] != ' ' && body[0] != '\t') || len(fields) < 2 {
				d.bad = "usage: //lint:ignore <check>[,<check>] <reason>"
				dirs = append(dirs, d)
				continue
			}
			d.checks = strings.Split(fields[0], ",")
			d.reason = strings.Join(fields[1:], " ")
			dirs = append(dirs, d)

			target := targetLine(fset, c, group, src)
			if ignore[target] == nil {
				ignore[target] = map[string]bool{}
			}
			for _, chk := range d.checks {
				ignore[target][chk] = true
			}
		}
	}
	return ignore, dirs
}

// targetLine decides which line a directive suppresses.
func targetLine(fset *token.FileSet, c *ast.Comment, group *ast.CommentGroup, src []byte) int {
	pos := fset.Position(c.Pos())
	// Trailing a statement: anything non-blank sits before the comment on
	// its own line.
	lineStart := pos.Offset - (pos.Column - 1)
	if strings.TrimSpace(string(src[lineStart:pos.Offset])) != "" {
		return pos.Line
	}
	// Standalone: the directive covers the first code line after its
	// comment group.
	return fset.Position(group.End()).Line + 1
}

// validateDirectives reports malformed directives and directives naming
// checks that do not exist.
func validateDirectives(pkg *Package, known map[string]bool) []Finding {
	var fs []Finding
	for _, f := range pkg.Files {
		for _, d := range f.directives {
			if d.bad != "" {
				fs = append(fs, pkg.Findingf(DirectiveCheck, d.pos,
					"malformed //lint:ignore directive (%s)", d.bad))
				continue
			}
			for _, chk := range d.checks {
				if !known[chk] {
					fs = append(fs, pkg.Findingf(DirectiveCheck, d.pos,
						"//lint:ignore names unknown check %q", chk))
				}
			}
		}
	}
	return fs
}

// filterSuppressed drops findings covered by an ignore directive.
func filterSuppressed(pkg *Package, fs []Finding) []Finding {
	byPath := map[string]*File{}
	for _, f := range pkg.Files {
		byPath[f.Path] = f
	}
	out := fs[:0]
	for _, fd := range fs {
		if f := byPath[fd.File]; f != nil && f.ignore[fd.Line][fd.Check] && fd.Check != DirectiveCheck {
			continue
		}
		out = append(out, fd)
	}
	return out
}

// importNames maps each file-local import name to its import path; blank
// and dot imports are skipped.
func importNames(af *ast.File) map[string]string {
	m := map[string]string{}
	for _, imp := range af.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		name := p[strings.LastIndex(p, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == "_" || name == "." {
			continue
		}
		m[name] = p
	}
	return m
}

// pkgCall reports whether call invokes localName.fn where localName is bound
// to importPath in imports, returning the selector's position.
func pkgCall(call *ast.CallExpr, imports map[string]string, importPath, fn string) (token.Pos, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != fn {
		return token.NoPos, false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || imports[id.Name] != importPath {
		return token.NoPos, false
	}
	return sel.Pos(), true
}

// underAny reports whether slash-path p lies in (or under) any of the given
// directory prefixes.
func underAny(p string, prefixes []string) bool {
	for _, pre := range prefixes {
		if p == pre || strings.HasPrefix(p, pre+"/") {
			return true
		}
	}
	return false
}
