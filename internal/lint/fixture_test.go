package lint_test

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"colormatch/internal/lint"
)

// fixtureRoot anchors all fixture packages; fixture paths in findings and
// configs are relative to it.
const fixtureRoot = "testdata/src"

// wantMarker matches one expected finding: a trailing comment containing
// "want:<check>" once per expected finding on that line.
var wantMarker = regexp.MustCompile(`want:([a-z-]+)`)

// runFixture lints one fixture package and compares the findings against
// the fixture's want markers, line by line and check by check.
func runFixture(t *testing.T, dir string, analyzers ...lint.Analyzer) {
	t.Helper()
	r := &lint.Runner{Root: fixtureRoot, Analyzers: analyzers}
	findings, err := r.Run(dir)
	if err != nil {
		t.Fatalf("lint %s: %v", dir, err)
	}
	want := collectWants(t, dir)
	got := map[string]int{}
	for _, f := range findings {
		got[fmt.Sprintf("%s:%d %s", f.File, f.Line, f.Check)]++
	}
	keys := map[string]bool{}
	for k := range want {
		keys[k] = true
	}
	for k := range got {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		if want[k] != got[k] {
			t.Errorf("%s: want %d finding(s), got %d", k, want[k], got[k])
		}
	}
}

// collectWants scans a fixture directory's sources for want markers.
func collectWants(t *testing.T, dir string) map[string]int {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(fixtureRoot, dir))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(fixtureRoot, dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			for _, m := range wantMarker.FindAllStringSubmatch(sc.Text(), -1) {
				key := fmt.Sprintf("%s/%s:%d %s", dir, e.Name(), line, m[1])
				want[key]++
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// fixtureWallclock is the wallclock policy under test: fixture package
// "virtclock" is virtual-time, with the Real shim's Now/Sleep allowed.
func fixtureWallclock() lint.Analyzer {
	return lint.NewWallclock(lint.WallclockConfig{
		Packages: []string{"virtclock"},
		Allow: []string{
			"virtclock/realshim.go:Real.Now",
			"virtclock/realshim.go:Real.Sleep",
		},
	})
}

func fixtureDurability() lint.Analyzer {
	return lint.NewDurability(lint.DurabilityConfig{Packages: []string{"durportal"}})
}

func TestWallclockFixture(t *testing.T) {
	runFixture(t, "virtclock", fixtureWallclock())
}

func TestWallclockOutOfScopePackage(t *testing.T) {
	runFixture(t, "wallfree", fixtureWallclock())
}

func TestDurabilityFixture(t *testing.T) {
	runFixture(t, "durportal", fixtureDurability())
}

func TestGoroutineFatalFixture(t *testing.T) {
	runFixture(t, "gofataltest", lint.NewGoroutineFatal())
}

func TestSentinelCompareFixture(t *testing.T) {
	runFixture(t, "sentinelpkg", lint.NewSentinelCompare())
}

func TestCtxDisciplineFixture(t *testing.T) {
	runFixture(t, "ctxpkg", lint.NewCtxDiscipline())
}

func TestTestOnlyFixture(t *testing.T) {
	runFixture(t, "testonly/internal/store", lint.NewTestOnly())
}

// TestTestOnlySeesWholeTree: with the fixture as the whole tree, linting
// only internal/... must still count the names cmd/tool uses, so narrowing
// the patterns narrows where findings are reported and nothing else.
func TestTestOnlySeesWholeTree(t *testing.T) {
	r := &lint.Runner{Root: fixtureRoot + "/testonly", Analyzers: []lint.Analyzer{lint.NewTestOnly()}}
	narrow, err := r.Run("internal/...")
	if err != nil {
		t.Fatal(err)
	}
	whole, err := r.Run("./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range narrow {
		for _, name := range []string{"Open", "OnlyCmd", "Items"} {
			if strings.Contains(f.Message, " "+name+" ") {
				t.Errorf("name used by cmd/tool reported: %s", f)
			}
		}
	}
	if len(narrow) != 6 || len(whole) != len(narrow) {
		t.Errorf("internal/... gave %d findings and ./... gave %d, want 6 each", len(narrow), len(whole))
	}
}

// TestFixturesFailWithoutChecks guards the guards: every fixture package
// must produce at least one finding when its analyzer runs, so an analyzer
// that silently stops matching cannot pass its fixture test by matching
// nothing.
func TestFixturesFailWithoutChecks(t *testing.T) {
	cases := []struct {
		dir string
		a   lint.Analyzer
	}{
		{"virtclock", fixtureWallclock()},
		{"durportal", fixtureDurability()},
		{"gofataltest", lint.NewGoroutineFatal()},
		{"sentinelpkg", lint.NewSentinelCompare()},
		{"ctxpkg", lint.NewCtxDiscipline()},
		{"testonly/internal/store", lint.NewTestOnly()},
	}
	for _, c := range cases {
		r := &lint.Runner{Root: fixtureRoot, Analyzers: []lint.Analyzer{c.a}}
		findings, err := r.Run(c.dir)
		if err != nil {
			t.Fatalf("%s: %v", c.dir, err)
		}
		if len(findings) == 0 {
			t.Errorf("%s: fixture produced no %s findings — the check is dead", c.dir, c.a.Name())
		}
		for _, f := range findings {
			if f.Check != c.a.Name() {
				t.Errorf("%s: finding from unexpected check %s", c.dir, f.Check)
			}
			if f.Line <= 0 || f.Col <= 0 || f.Message == "" {
				t.Errorf("%s: incomplete finding %+v", c.dir, f)
			}
		}
	}
}
