package experiments

import (
	"context"
	"net/http/httptest"
	"testing"

	"colormatch/internal/core"
	"colormatch/internal/portal"
	"colormatch/internal/sim"
	"colormatch/internal/wei"
)

// TestFullExperimentOverHTTP runs the complete application with every
// command crossing HTTP to the workcell server and every published record
// crossing HTTP to the portal server — the deployment shape of the physical
// system, where device computers and the data portal are separate services.
func TestFullExperimentOverHTTP(t *testing.T) {
	wc := core.NewSimWorkcell(core.WorkcellOptions{Seed: 17})
	workcellSrv := httptest.NewServer(wei.ServeModules(wc.Registry))
	defer workcellSrv.Close()

	store := portal.NewStore()
	portalSrv := httptest.NewServer(portal.Serve(store))
	defer portalSrv.Close()

	client := wei.NewHTTPClient(workcellSrv.URL, wc.Registry.Names()...)
	log := wei.NewEventLog(wc.Clock)
	engine := wei.NewEngine(client, wc.Clock, log)
	sol, err := NewSolver("genetic", sim.NewRNG(17).Derive("solver"), core.DefaultTarget)
	if err != nil {
		t.Fatal(err)
	}
	app, err := core.NewApp(core.Config{
		Experiment:   "http_e2e",
		BatchSize:    8,
		TotalSamples: 16,
	}, engine, sol)
	if err != nil {
		t.Fatal(err)
	}
	app.Dest = portal.NewClient(portalSrv.URL)

	res, err := app.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 16 || len(res.RecordIDs) != 2 {
		t.Fatalf("samples=%d published=%d", len(res.Samples), len(res.RecordIDs))
	}

	// The records, including the plate image, survived two HTTP hops.
	pc := portal.NewClient(portalSrv.URL)
	sum, err := pc.Summary("http_e2e")
	if err != nil {
		t.Fatal(err)
	}
	if sum.Runs != 2 || sum.Samples != 16 || sum.Images != 2 {
		t.Fatalf("summary = %+v", sum)
	}
	recs, err := pc.Search("http_e2e", 1)
	if err != nil || len(recs) != 1 {
		t.Fatalf("search: %v, %v", recs, err)
	}
	full, err := pc.Get(recs[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Files["plate.png"]) < 1000 {
		t.Fatalf("plate image lost: %d bytes", len(full.Files["plate.png"]))
	}

	// Virtual timing survives the HTTP transport: the engine's durations
	// come from the shared clock, not wall time.
	if res.Metrics.SynthesisTime <= 0 || res.Metrics.TransferTime <= 0 {
		t.Fatalf("metrics over HTTP = %+v", res.Metrics)
	}
}

// TestHTTPAndInProcessAgree runs the identical seeded experiment through
// both transports; results must match exactly, proving transport
// transparency of the module protocol.
func TestHTTPAndInProcessAgree(t *testing.T) {
	runWith := func(useHTTP bool) *core.Result {
		wc := core.NewSimWorkcell(core.WorkcellOptions{Seed: 23})
		var client wei.Client = wc.Registry
		if useHTTP {
			srv := httptest.NewServer(wei.ServeModules(wc.Registry))
			defer srv.Close()
			client = wei.NewHTTPClient(srv.URL, wc.Registry.Names()...)
		}
		log := wei.NewEventLog(wc.Clock)
		engine := wei.NewEngine(client, wc.Clock, log)
		sol, err := NewSolver("genetic", sim.NewRNG(23).Derive("solver"), core.DefaultTarget)
		if err != nil {
			t.Fatal(err)
		}
		app, err := core.NewApp(core.Config{
			Experiment:   "transport_parity",
			BatchSize:    4,
			TotalSamples: 8,
		}, engine, sol)
		if err != nil {
			t.Fatal(err)
		}
		res, err := app.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	inproc := runWith(false)
	http := runWith(true)
	if len(inproc.Samples) != len(http.Samples) {
		t.Fatal("sample counts differ across transports")
	}
	for i := range inproc.Samples {
		if inproc.Samples[i].Color != http.Samples[i].Color ||
			inproc.Samples[i].Score != http.Samples[i].Score {
			t.Fatalf("sample %d differs across transports: %+v vs %+v",
				i, inproc.Samples[i], http.Samples[i])
		}
	}
	if inproc.Elapsed() != http.Elapsed() {
		t.Fatalf("virtual time differs: %v vs %v", inproc.Elapsed(), http.Elapsed())
	}
}
