package portal_test

import (
	"fmt"
	"net/http/httptest"
	"os"
	"time"

	"colormatch/internal/portal"
)

// ExampleOpenStoreWith shows the durable store surviving a restart: records
// ingested before Close are replayed from the segment log by the next
// OpenStoreWith.
func ExampleOpenStoreWith() {
	dir, err := os.MkdirTemp("", "portal-example")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	store, err := portal.OpenStoreWith(dir, portal.Options{})
	if err != nil {
		panic(err)
	}
	t0 := time.Date(2023, 8, 16, 9, 0, 0, 0, time.UTC)
	var recs []portal.Record
	for run := 1; run <= 3; run++ {
		recs = append(recs, portal.Record{
			Experiment: "color_picker",
			Run:        run,
			Time:       t0.Add(time.Duration(run) * time.Hour),
			Files:      map[string][]byte{"plate.png": []byte("…")},
		})
	}
	if _, err := store.IngestBatchKeyed(portal.NewBatchKey(), recs); err != nil {
		panic(err)
	}
	store.Close() // simulated restart

	reopened, err := portal.OpenStoreWith(dir, portal.Options{})
	if err != nil {
		panic(err)
	}
	defer reopened.Close()
	sum, _ := reopened.Summarize("color_picker")
	fmt.Printf("replayed %d records, %d runs, %d images\n", reopened.Len(), sum.Runs, sum.Images)
	// Output: replayed 3 records, 3 runs, 3 images
}

// ExampleStore_SearchPage walks a large experiment page by page: each page
// carries an opaque cursor that resumes the listing exactly where the
// previous page stopped.
func ExampleStore_SearchPage() {
	store := portal.NewStore()
	t0 := time.Date(2023, 8, 16, 9, 0, 0, 0, time.UTC)
	var recs []portal.Record
	for i := 0; i < 7; i++ {
		recs = append(recs, portal.Record{
			Experiment: "sweep",
			Run:        i,
			Time:       t0.Add(time.Duration(i) * time.Minute),
		})
	}
	if _, err := store.IngestBatchKeyed(portal.NewBatchKey(), recs); err != nil {
		panic(err)
	}
	q := portal.Query{Experiment: "sweep", Limit: 3}
	for page := 1; ; page++ {
		res, err := store.SearchPage(q)
		if err != nil {
			panic(err)
		}
		fmt.Printf("page %d: %d records\n", page, len(res.Records))
		if res.Next == "" {
			break
		}
		q.Cursor = res.Next
	}
	// Output:
	// page 1: 3 records
	// page 2: 3 records
	// page 3: 1 records
}

// ExampleClient_IngestBatchKeyed publishes one record to a running portal
// server over HTTP, under an idempotency key that any retry of the same
// batch would reuse, and reads its experiment summary back.
func ExampleClient_IngestBatchKeyed() {
	store := portal.NewStore()
	srv := httptest.NewServer(portal.Serve(store))
	defer srv.Close()

	client := portal.NewClient(srv.URL)
	ids, err := client.IngestBatchKeyed(portal.NewBatchKey(), []portal.Record{{
		Experiment: "remote_exp",
		Run:        1,
		Time:       time.Date(2023, 8, 16, 10, 0, 0, 0, time.UTC),
		Fields:     map[string]any{"samples": 15, "best_score": 12.5},
	}})
	if err != nil {
		panic(err)
	}
	sum, err := client.Summary("remote_exp")
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s: %d records, best %.1f\n", ids[0], sum.Records, sum.BestScore)
	// Output: rec-000001: 1 records, best 12.5
}
