package lint_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"colormatch/internal/lint"
)

// TestIgnoreDirectives checks directive semantics on the ignores fixture:
// honored suppressions are silent, a missing reason and an unknown check
// name are reported under the reserved "archlint" check, and neither of
// those malformed directives suppresses the finding it sits above.
func TestIgnoreDirectives(t *testing.T) {
	r := &lint.Runner{
		Root:      fixtureRoot,
		Analyzers: []lint.Analyzer{lint.NewCtxDiscipline()},
	}
	findings, err := r.Run("ignores")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, fmt.Sprintf("%s:%d", f.Check, f.Line))
	}
	want := map[string]string{
		"archlint:23":       "missing-reason directive reported",
		"archlint:28":       "unknown-check directive reported",
		"ctx-discipline:20": "unsuppressed field flagged",
		"ctx-discipline:25": "field under malformed directive still flagged",
		"ctx-discipline:30": "field under unknown-check directive still flagged",
	}
	if len(got) != len(want) {
		t.Errorf("got %d findings %v, want %d", len(got), got, len(want))
	}
	for key, why := range want {
		found := false
		for _, g := range got {
			if g == key {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing finding %s (%s); got %v", key, why, got)
		}
	}
	for _, f := range findings {
		if f.Check != lint.DirectiveCheck {
			continue
		}
		if f.Line == 23 && !strings.Contains(f.Message, "reason") {
			t.Errorf("missing-reason message should mention the reason: %q", f.Message)
		}
		if f.Line == 28 && !strings.Contains(f.Message, "no-such-check") {
			t.Errorf("unknown-check message should name the check: %q", f.Message)
		}
	}
}

// TestDirectiveValidationIgnoresEnableFilter: a directive naming a check
// that exists but is disabled for this run is still valid — validation is
// against the full registry, not the enabled subset.
func TestDirectiveValidationIgnoresEnableFilter(t *testing.T) {
	r := &lint.Runner{
		Root:      fixtureRoot,
		Analyzers: []lint.Analyzer{lint.NewCtxDiscipline(), lint.NewSentinelCompare()},
		Enable:    map[string]bool{"sentinel-compare": true},
	}
	findings, err := r.Run("ignores")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if f.Check == "ctx-discipline" {
			t.Errorf("disabled check reported a finding: %+v", f)
		}
		if f.Check == lint.DirectiveCheck && strings.Contains(f.Message, "ctx-discipline") {
			t.Errorf("directive naming a registered-but-disabled check flagged as unknown: %+v", f)
		}
	}
}

// TestWalkerSkips: the ./... expansion must skip testdata, vendor, and
// hidden directories, so fixtures can hold deliberately broken code
// without tripping the gate.
func TestWalkerSkips(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"a/a.go":              "package a\n\nimport \"context\"\n\ntype h struct{ ctx context.Context }\n",
		"a/testdata/bad.go":   "package bad\n\nimport \"context\"\n\ntype h struct{ ctx context.Context }\n",
		"vendor/v/v.go":       "package v\n\nimport \"context\"\n\ntype h struct{ ctx context.Context }\n",
		".hidden/h.go":        "package h\n\nimport \"context\"\n\ntype h struct{ ctx context.Context }\n",
		"b/nongo.txt":         "not go\n",
		"c/broken_other.japp": "ignored\n",
	}
	for rel, src := range files {
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r := &lint.Runner{Root: root, Analyzers: []lint.Analyzer{lint.NewCtxDiscipline()}}
	findings, err := r.Run("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("want exactly 1 finding (from a/a.go), got %d: %+v", len(findings), findings)
	}
	if f := findings[0]; filepath.ToSlash(f.File) != "a/a.go" {
		t.Errorf("finding from %s, want a/a.go", f.File)
	}
}

// TestEnableFilter: Runner.Enable restricts which analyzers report.
func TestEnableFilter(t *testing.T) {
	r := &lint.Runner{
		Root:      fixtureRoot,
		Analyzers: []lint.Analyzer{lint.NewSentinelCompare(), lint.NewCtxDiscipline()},
		Enable:    map[string]bool{"ctx-discipline": true},
	}
	findings, err := r.Run("sentinelpkg", "ctxpkg")
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) == 0 {
		t.Fatal("enabled check produced no findings")
	}
	for _, f := range findings {
		if f.Check != "ctx-discipline" {
			t.Errorf("finding from disabled check: %+v", f)
		}
	}
}

// TestFindingsSorted: output is ordered by file, then line, so runs are
// deterministic and diffs against previous output are stable.
func TestFindingsSorted(t *testing.T) {
	r := &lint.Runner{
		Root:      fixtureRoot,
		Analyzers: []lint.Analyzer{lint.NewSentinelCompare(), lint.NewCtxDiscipline()},
	}
	findings, err := r.Run("sentinelpkg", "ctxpkg")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(findings); i++ {
		a, b := findings[i-1], findings[i]
		if a.File > b.File || (a.File == b.File && a.Line > b.Line) {
			t.Errorf("findings out of order: %s:%d before %s:%d", a.File, a.Line, b.File, b.Line)
		}
	}
}

// TestDefaultAnalyzers: the default registry carries the six documented
// checks under their stable names.
func TestDefaultAnalyzers(t *testing.T) {
	want := []string{"wallclock", "durability", "goroutine-fatal", "sentinel-compare", "ctx-discipline", "testonly"}
	got := lint.DefaultAnalyzers()
	if len(got) != len(want) {
		t.Fatalf("got %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name() != want[i] {
			t.Errorf("analyzer %d: got %q, want %q", i, a.Name(), want[i])
		}
		if a.Doc() == "" {
			t.Errorf("analyzer %q has no doc", a.Name())
		}
	}
}

// TestEveryCheckIsDocumented: each default check has a "### `<name>`"
// heading in docs/LINT.md, so no check ships without its policy written
// down.
func TestEveryCheckIsDocumented(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "LINT.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range lint.DefaultAnalyzers() {
		heading := "\n### `" + a.Name() + "`"
		if !strings.Contains(string(doc), heading) {
			t.Errorf("docs/LINT.md has no %q heading", strings.TrimSpace(heading))
		}
	}
}
