package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"colormatch/internal/color"
	"colormatch/internal/fleet"
)

func TestSummarizeEndToEnd(t *testing.T) {
	target, _ := color.ParseHex("787878")
	campaigns := buildCampaigns(2, "random", target, 8)
	if len(campaigns) != 2 || campaigns[0].Solver != "random" {
		t.Fatalf("campaigns = %+v", campaigns)
	}
	res, err := fleet.Run(context.Background(), campaigns, fleet.Options{
		Workcells: 2, Batch: 4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := summarize(res)
	if s.Campaigns != 2 || s.Workcells != 2 || s.Completed != 2 {
		t.Fatalf("summary = %+v", s)
	}
	if s.MakespanSeconds <= 0 || s.Speedup <= 0 {
		t.Fatalf("timing missing: %+v", s)
	}
	if len(s.PerWorkcell) != 2 || len(s.PerCampaign) != 2 {
		t.Fatalf("breakdowns missing: %+v", s)
	}
	for _, c := range s.PerCampaign {
		if c.Status != string(fleet.StatusCompleted) || c.Samples != 8 {
			t.Fatalf("campaign summary = %+v", c)
		}
	}
}

func TestSplitURLs(t *testing.T) {
	urls := splitURLs(" http://a:2000, http://b:2000 ,,")
	if len(urls) != 2 || urls[0] != "http://a:2000" || urls[1] != "http://b:2000" {
		t.Fatalf("urls = %#v", urls)
	}
	if got := splitURLs(",,"); len(got) != 0 {
		t.Fatalf("empty parse = %#v", got)
	}
}

func TestSummarizeLanesAndBenchOut(t *testing.T) {
	target, _ := color.ParseHex("787878")
	res, err := fleet.Run(context.Background(), buildCampaigns(4, "random", target, 8), fleet.Options{
		Workcells: 1, LanesPerCell: 2, Batch: 4, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := summarize(res)
	if s.LanesPerCell != 2 {
		t.Fatalf("lanes_per_cell = %d", s.LanesPerCell)
	}
	if s.QueueWaitSeconds <= 0 {
		t.Fatalf("queue_wait_seconds = %v, want > 0 with 2 lanes on one cell", s.QueueWaitSeconds)
	}
	if len(s.PerModule) == 0 {
		t.Fatal("per_module breakdown missing")
	}
	if _, ok := s.PerModule["pf400"]; !ok {
		t.Fatalf("per_module lacks pf400: %v", s.PerModule)
	}
	if s.PerWorkcell[0].WorkSeconds <= s.PerWorkcell[0].BusySeconds {
		t.Fatalf("work %v <= busy %v: lanes did not overlap",
			s.PerWorkcell[0].WorkSeconds, s.PerWorkcell[0].BusySeconds)
	}

	path := filepath.Join(t.TempDir(), "BENCH_fleet.json")
	if err := writeBench(path, "lanes", buildBench(s, 0, 1.5)); err != nil {
		t.Fatal(err)
	}
	f := readBenchFile(t, path)
	b := f.Scenarios["lanes"]
	if b.LanesPerCell != 2 || b.Completed != 4 || b.MakespanSeconds <= 0 || b.Speedup <= 1 {
		t.Fatalf("bench output = %+v", b)
	}
	if b.WallSeconds != 1.5 || b.CampaignsPerWallSecond != float64(b.Completed)/1.5 {
		t.Fatalf("wall-clock fields = %v, %v", b.WallSeconds, b.CampaignsPerWallSecond)
	}
	if b.MeanUtilization <= 0 || len(b.PerCellUtilization) != 1 {
		t.Fatalf("utilization missing: %+v", b)
	}
	if b.Lost != 0 {
		t.Fatalf("lost = %d, want 0", b.Lost)
	}
}

// TestValidateFailFast pins the cross-flag rules: flags that would silently
// do nothing must be rejected up front with an error naming both sides.
func TestValidateFailFast(t *testing.T) {
	remote := []string{"http://a:2000"}
	cases := []struct {
		name string
		cfg  fleetConfig
		want string // substring of the error, "" for valid
	}{
		{"local defaults", fleetConfig{lanes: 1}, ""},
		{"local lanes", fleetConfig{lanes: 2}, ""},
		{"local faults", fleetConfig{lanes: 1, faults: 0.05}, ""},
		{"remote", fleetConfig{lanes: 1, remoteFlag: "http://a:2000", remote: remote}, ""},
		{"churn pool", fleetConfig{lanes: 1, churnCells: 4, churnSpec: "0@1s+2s"}, ""},
		{"join listen", fleetConfig{lanes: 1, joinListen: ":2200"}, ""},
		{"lanes zero", fleetConfig{lanes: 0}, "-lanes must be >= 1"},
		{"remote no urls", fleetConfig{lanes: 1, remoteFlag: " , "}, "no URLs parsed"},
		{"faults with remote", fleetConfig{lanes: 1, faults: 0.05, remoteFlag: "http://a:2000", remote: remote}, "-faults is a local-pool option"},
		{"lanes with remote", fleetConfig{lanes: 2, remoteFlag: "http://a:2000", remote: remote}, "-lanes is a local-pool option"},
		{"faults with churn", fleetConfig{lanes: 1, faults: 0.05, churnCells: 2}, "-faults is a local-pool option"},
		{"faults with join listen", fleetConfig{lanes: 1, faults: 0.05, joinListen: ":2200"}, "-faults is a local-pool option"},
		{"churn with remote", fleetConfig{lanes: 1, churnCells: 2, remoteFlag: "http://a:2000", remote: remote}, "choose one"},
		{"churn spec without pool", fleetConfig{lanes: 1, churnSpec: "0@1s"}, "-churn needs a -churn-cells pool"},
		{"negative churn cells", fleetConfig{lanes: 1, churnCells: -1}, "-churn-cells must be >= 0"},
		{"stream with portal", fleetConfig{lanes: 1, stream: true, portalURL: "http://p:2100"}, ""},
		{"stream without portal", fleetConfig{lanes: 1, stream: true}, "-portal"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validate() = nil, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("validate() = %q, want it to contain %q", err, tc.want)
			}
		})
	}
}

// TestValidateFaultsWithRemoteErrorNamesBothFlags is the regression test for
// the original silent-ignore hazard: -faults alongside -remote must fail
// fast with an error naming both flags, not run a fault-free remote fleet.
func TestValidateFaultsWithRemoteErrorNamesBothFlags(t *testing.T) {
	cfg := fleetConfig{
		lanes:      1,
		faults:     0.1,
		remoteFlag: "http://a:2000",
		remote:     []string{"http://a:2000"},
	}
	err := cfg.validate()
	if err == nil {
		t.Fatal("-faults with -remote validated clean; want fail-fast error")
	}
	for _, flag := range []string{"-faults", "-remote"} {
		if !strings.Contains(err.Error(), flag) {
			t.Errorf("error %q does not name %s", err, flag)
		}
	}
}

// TestWriteBenchScenarios covers the -bench-out merge behavior: scenarios
// accumulate in one file, rewriting a scenario replaces only that entry.
func TestWriteBenchScenarios(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")

	if err := writeBench(path, "lanes", benchOutput{Campaigns: 8, Completed: 8}); err != nil {
		t.Fatal(err)
	}
	if err := writeBench(path, "churn", benchOutput{Campaigns: 100, Completed: 100, Readmissions: 3, ChurnEvents: 2}); err != nil {
		t.Fatal(err)
	}
	f := readBenchFile(t, path)
	if len(f.Scenarios) != 2 {
		t.Fatalf("got %d scenarios, want 2: %v", len(f.Scenarios), f.Scenarios)
	}
	if f.Scenarios["lanes"].Campaigns != 8 || f.Scenarios["churn"].Campaigns != 100 {
		t.Fatalf("scenario mixup: %+v", f.Scenarios)
	}
	if f.Scenarios["churn"].Readmissions != 3 {
		t.Fatalf("churn readmissions = %d, want 3", f.Scenarios["churn"].Readmissions)
	}

	// Rewriting one scenario must not clobber the other.
	if err := writeBench(path, "churn", benchOutput{Campaigns: 120, Completed: 120}); err != nil {
		t.Fatal(err)
	}
	f = readBenchFile(t, path)
	if f.Scenarios["churn"].Campaigns != 120 || f.Scenarios["lanes"].Campaigns != 8 {
		t.Fatalf("rewrite clobbered scenarios: %+v", f.Scenarios)
	}
}

// TestWriteBenchMigratesLegacyFlatFile covers upgrading a pre-scenario
// BENCH_fleet.json (one flat benchmark object) in place.
func TestWriteBenchMigratesLegacyFlatFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	legacy, err := json.Marshal(benchOutput{Campaigns: 8, Completed: 8, Speedup: 3.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := writeBench(path, "churn", benchOutput{Campaigns: 100, Completed: 100}); err != nil {
		t.Fatal(err)
	}
	f := readBenchFile(t, path)
	if got := f.Scenarios["lanes"]; got.Campaigns != 8 || got.Speedup != 3.5 {
		t.Fatalf("legacy entry not migrated to lanes: %+v", f.Scenarios)
	}
	if f.Scenarios["churn"].Campaigns != 100 {
		t.Fatalf("churn entry missing: %+v", f.Scenarios)
	}
}

func readBenchFile(t *testing.T, path string) benchFile {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil || f.Scenarios == nil {
		t.Fatalf("bench file is not scenario-shaped: %v\n%s", err, data)
	}
	return f
}
