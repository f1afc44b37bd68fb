// Distributed: run the whole pipeline across process boundaries the way the
// physical deployment does — workcell modules behind one HTTP server (the
// device computers), the data portal behind another (ACDC), and the
// application driving both over the wire. Everything still runs in this one
// process for convenience, but every command and every published record
// crosses real HTTP. It exits non-zero unless the portal, queried back
// over HTTP, holds all three iterations' records.
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"log"
	"net/http/httptest"

	"colormatch"
)

func main() {
	// The "device computers": one HTTP server exposing all five modules.
	wc := colormatch.NewWorkcell(colormatch.WorkcellOptions{Seed: 3})
	workcellSrv := httptest.NewServer(colormatch.ServeWorkcell(wc))
	defer workcellSrv.Close()

	// The data portal service.
	store := colormatch.NewPortalStore()
	portalSrv := httptest.NewServer(colormatch.ServePortal(store))
	defer portalSrv.Close()

	fmt.Printf("workcell at %s\nportal   at %s\n\n", workcellSrv.URL, portalSrv.URL)

	// The application: module commands via HTTP, publication via HTTP.
	client := colormatch.NewHTTPModuleClient(workcellSrv.URL, wc.Registry.Names()...)
	engine, _ := colormatch.NewEngine(client, wc)
	sol, err := colormatch.NewSolver("genetic", 3, colormatch.DefaultTarget)
	if err != nil {
		log.Fatal(err)
	}
	app, err := colormatch.NewApp(colormatch.Config{
		Experiment:   "distributed_demo",
		BatchSize:    8,
		TotalSamples: 24,
	}, engine, sol)
	if err != nil {
		log.Fatal(err)
	}
	app.Dest = colormatch.NewPortalClient(portalSrv.URL)

	res, err := app.Run(nil)
	if err != nil {
		log.Fatal(err)
	}
	if res.PublishErr != nil {
		log.Fatal(res.PublishErr)
	}
	fmt.Printf("experiment done: best #%02x%02x%02x score %.2f, %v of robot time\n\n",
		res.Best.Color.R, res.Best.Color.G, res.Best.Color.B,
		res.Best.Score, res.Elapsed().Round(1e9))

	// Query the portal back over HTTP, like a user browsing Figure 3.
	pc := colormatch.NewPortalClient(portalSrv.URL)
	sum, err := pc.Summary("distributed_demo")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("portal summary: %d runs, %d samples, best score %.2f, %d image(s)\n",
		sum.Runs, sum.Samples, sum.BestScore, sum.Images)
	// 24 samples at batch 8 are three iterations, one record each.
	if sum.Runs != 3 || sum.Samples != 24 {
		log.Fatalf("portal holds %d runs, %d samples; want 3 runs, 24 samples", sum.Runs, sum.Samples)
	}
	recs, err := pc.Search("distributed_demo", 1)
	if err != nil {
		log.Fatal(err)
	}
	if len(recs) > 0 {
		full, err := pc.Get(recs[0].ID)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("record %s: fields=%d, plate image %d bytes\n",
			full.ID, len(full.Fields), len(full.Files["plate.png"]))
	}
}
