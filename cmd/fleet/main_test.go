package main

import (
	"context"
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

func TestSummarizeLanes(t *testing.T) {
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
	if s.Completed != 4 || s.Campaigns-s.Completed-s.Failed-s.Canceled != 0 {
		t.Fatalf("completed %d of %d (failed %d, canceled %d)", s.Completed, s.Campaigns, s.Failed, s.Canceled)
	}
	if s.MakespanSeconds <= 0 || s.Speedup <= 1 {
		t.Fatalf("makespan %v, speedup %v: want > 0 and > 1", s.MakespanSeconds, s.Speedup)
	}
	if len(s.PerWorkcell) != 1 || s.PerWorkcell[0].Utilization <= 0 {
		t.Fatalf("utilization missing: %+v", s.PerWorkcell)
	}
	if s.ChurnKills != 0 {
		t.Fatalf("churn_kills = %d on a local pool", s.ChurnKills)
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
