package portal

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func newPortalFixture(t *testing.T) (*Client, *Store) {
	t.Helper()
	store := NewStore()
	srv := httptest.NewServer(Serve(store))
	t.Cleanup(srv.Close)
	return NewClient(srv.URL), store
}

func TestHTTPIngestAndGetWithFiles(t *testing.T) {
	c, store := newPortalFixture(t)
	img := []byte{0x89, 'P', 'N', 'G', 0, 1, 2, 3}
	id, err := ingestOne(c, Record{
		Experiment: "http_exp",
		Run:        1,
		Time:       time.Date(2023, 8, 16, 10, 0, 0, 0, time.UTC),
		Fields:     map[string]any{"best_score": 12.5},
		Files:      map[string][]byte{"plate.png": img},
	})
	if err != nil {
		t.Fatal(err)
	}
	if store.Len() != 1 {
		t.Fatal("record not stored")
	}
	got, err := c.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if got.Experiment != "http_exp" || got.Fields["best_score"] != 12.5 {
		t.Fatalf("got %+v", got)
	}
	if string(got.Files["plate.png"]) != string(img) {
		t.Fatal("attachment corrupted over HTTP")
	}
}

func TestHTTPSearchOmitsFileBodies(t *testing.T) {
	c, _ := newPortalFixture(t)
	for i := 0; i < 5; i++ {
		if _, err := ingestOne(c, Record{
			Experiment: "s",
			Run:        i,
			Time:       time.Now(),
			Files:      map[string][]byte{"plate.png": make([]byte, 1000)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := c.Search("s", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("search returned %d", len(recs))
	}
	for _, r := range recs {
		if len(r.Files) != 0 {
			t.Fatal("search leaked file bodies")
		}
	}
}

func TestHTTPSummary(t *testing.T) {
	c, _ := newPortalFixture(t)
	for run := 1; run <= 3; run++ {
		ingestOne(c, Record{
			Experiment: "sumexp",
			Run:        run,
			Time:       time.Now(),
			Fields:     map[string]any{"samples": 15, "best_score": 20.0 - float64(run)},
		})
	}
	sum, err := c.Summary("sumexp")
	if err != nil {
		t.Fatal(err)
	}
	if sum.Runs != 3 || sum.Samples != 45 || sum.BestScore != 17 {
		t.Fatalf("summary = %+v", sum)
	}
	if _, err := c.Summary("ghost"); err == nil {
		t.Fatal("missing summary fetched")
	}
}

func TestHTTPIngestBatch(t *testing.T) {
	c, store := newPortalFixture(t)
	recs := []Record{
		{Experiment: "batch", Run: 1, Time: time.Date(2023, 8, 16, 9, 0, 0, 0, time.UTC),
			Files: map[string][]byte{"plate.png": []byte("img1")}},
		{Experiment: "batch", Run: 2, Time: time.Date(2023, 8, 16, 9, 1, 0, 0, time.UTC)},
		{Experiment: "batch", Run: 3, Time: time.Date(2023, 8, 16, 9, 2, 0, 0, time.UTC)},
	}
	ids, err := c.IngestBatchKeyed("", recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 || store.Len() != 3 {
		t.Fatalf("ids=%v Len=%d", ids, store.Len())
	}
	got, err := c.Get(ids[0])
	if err != nil || string(got.Files["plate.png"]) != "img1" {
		t.Fatalf("batch record roundtrip: %+v, %v", got, err)
	}

	// One invalid record rejects the whole batch server-side.
	bad := []Record{{Experiment: "batch", Run: 4, Time: time.Now()}, {Run: 5}}
	if _, err := c.IngestBatchKeyed("", bad); err == nil {
		t.Fatal("invalid batch accepted")
	}
	if store.Len() != 3 {
		t.Fatalf("partial batch ingested: %d", store.Len())
	}
	if ids, err := c.IngestBatchKeyed("", nil); err != nil || ids != nil {
		t.Fatalf("empty batch: %v, %v", ids, err)
	}
}

func TestHTTPSearchPagination(t *testing.T) {
	c, _ := newPortalFixture(t)
	t0 := time.Date(2023, 8, 16, 9, 0, 0, 0, time.UTC)
	var recs []Record
	for i := 0; i < 10; i++ {
		recs = append(recs, Record{Experiment: "pg", Run: i, Time: t0.Add(time.Duration(i) * time.Minute)})
	}
	if _, err := c.IngestBatchKeyed("", recs); err != nil {
		t.Fatal(err)
	}
	var runs []int
	q := Query{Experiment: "pg", Limit: 4}
	pages := 0
	for {
		page, err := c.SearchPage(q)
		if err != nil {
			t.Fatal(err)
		}
		pages++
		for _, r := range page.Records {
			runs = append(runs, r.Run)
		}
		if page.Next == "" {
			break
		}
		q.Cursor = page.Next
	}
	if pages != 3 || len(runs) != 10 {
		t.Fatalf("pages=%d runs=%v", pages, runs)
	}
	for i, run := range runs {
		if run != i {
			t.Fatalf("pagination out of order over HTTP: %v", runs)
		}
	}

	// Time-window filters travel as RFC 3339 params.
	page, err := c.SearchPage(Query{Experiment: "pg", After: t0.Add(2 * time.Minute), Before: t0.Add(5 * time.Minute)})
	if err != nil || len(page.Records) != 3 {
		t.Fatalf("window page = %+v, %v", page, err)
	}

	// Sub-second bounds must survive the wire: a window cutting between
	// records 300ms and 700ms into the same second selects exactly one.
	sub := []Record{
		{Experiment: "subsec", Run: 1, Time: t0.Add(300 * time.Millisecond)},
		{Experiment: "subsec", Run: 2, Time: t0.Add(700 * time.Millisecond)},
	}
	if _, err := c.IngestBatchKeyed("", sub); err != nil {
		t.Fatal(err)
	}
	page, err = c.SearchPage(Query{Experiment: "subsec", After: t0.Add(500 * time.Millisecond)})
	if err != nil || len(page.Records) != 1 || page.Records[0].Run != 2 {
		t.Fatalf("sub-second window = %+v, %v", page, err)
	}

	// A malformed cursor is a client error, not a silent empty page.
	if _, err := c.SearchPage(Query{Experiment: "pg", Cursor: "!!!"}); err == nil {
		t.Fatal("bad cursor accepted over HTTP")
	}
}

func TestHTTPErrors(t *testing.T) {
	c, _ := newPortalFixture(t)
	if _, err := ingestOne(c, Record{}); err == nil {
		t.Fatal("invalid record ingested")
	}
	if _, err := c.Get("missing"); err == nil {
		t.Fatal("missing record fetched")
	}
	srv := httptest.NewServer(Serve(NewStore()))
	srv.Close()
	dead := NewClient(srv.URL)
	if _, err := ingestOne(dead, Record{Experiment: "x"}); err == nil {
		t.Fatal("ingest to dead server succeeded")
	}
}

// TestHTTPIngestStatusCodes: a bad submission is the client's 400 while a
// store-side failure is a 500, so a remote publisher can tell "fix the
// record" from "retry later".
func TestHTTPIngestStatusCodes(t *testing.T) {
	store, err := OpenStoreWith(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Serve(store))
	defer srv.Close()
	post := func(key, records string) int {
		t.Helper()
		return postParts(t, srv.URL+"/ingest/batch", key, rawPart{"records", records})
	}
	if code := post("k-1", `[{"experiment":""}]`); code != http.StatusBadRequest {
		t.Fatalf("invalid keyed record = HTTP %d, want 400", code)
	}
	if code := post("", `[{"experiment":"x"},{"experiment":""}]`); code != http.StatusBadRequest {
		t.Fatalf("invalid batch = HTTP %d, want 400", code)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if code := post("k-2", `[{"experiment":"x"}]`); code != http.StatusInternalServerError {
		t.Fatalf("closed-store keyed ingest = HTTP %d, want 500", code)
	}
	if code := post("", `[{"experiment":"x"}]`); code != http.StatusInternalServerError {
		t.Fatalf("closed-store batch = HTTP %d, want 500", code)
	}
}

// TestIngestErrorClassification: only the portal's own 400 marks a
// submission invalid (no retry can help); a proxy's 429 or 408 must stay
// retryable.
func TestIngestErrorClassification(t *testing.T) {
	mk := func(code int) *http.Response {
		return &http.Response{StatusCode: code, Body: io.NopCloser(strings.NewReader("nope"))}
	}
	if err := ingestError("ingest", mk(http.StatusBadRequest)); !errors.Is(err, ErrInvalid) {
		t.Fatalf("400 not classified invalid: %v", err)
	}
	for _, code := range []int{http.StatusRequestTimeout, http.StatusTooManyRequests, http.StatusInternalServerError} {
		if err := ingestError("ingest", mk(code)); errors.Is(err, ErrInvalid) {
			t.Fatalf("HTTP %d wrongly classified invalid: %v", code, err)
		}
	}
}

// TestInvalidSubmissionNamesErrInvalidOnce: a 400 from POST /ingest/batch
// or POST /events comes back as ErrInvalid, and the message carries the
// ErrInvalid text once even though the server's body already starts with it.
func TestInvalidSubmissionNamesErrInvalidOnce(t *testing.T) {
	hub, err := OpenHub(HubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	srv := httptest.NewServer(Serve(NewStore(), WithHub(hub)))
	defer srv.Close()
	c := NewClient(srv.URL)
	_, batchErr := c.IngestBatchKeyed("k-1", []Record{{Experiment: ""}})
	_, eventsErr := c.PublishEventsKeyed("k-2", []StreamEvent{{Kind: "step_end"}})
	for op, err := range map[string]error{"ingest batch": batchErr, "publish events": eventsErr} {
		if !errors.Is(err, ErrInvalid) {
			t.Fatalf("%s: err = %v, want ErrInvalid", op, err)
		}
		if n := strings.Count(err.Error(), ErrInvalid.Error()); n != 1 {
			t.Fatalf("%s: %q names %q %d times, want once", op, err, ErrInvalid, n)
		}
		if !strings.Contains(err.Error(), op+": HTTP 400") {
			t.Fatalf("%s: %q lacks the operation and status", op, err)
		}
	}
}

// TestHTTPRecordGetStatusCodes: a nonexistent record is a 404, but a
// blob-load failure on a record the store does have is a 500 — the record
// exists, the server just cannot serve it right now.
func TestHTTPRecordGetStatusCodes(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStoreWith(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	id, err := ingestOne(store, Record{Experiment: "g", Time: time.Now(),
		Files: map[string][]byte{"plate.png": []byte("img")}})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Serve(store))
	defer srv.Close()
	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/records/" + id); code != http.StatusOK {
		t.Fatalf("existing record = HTTP %d", code)
	}
	if code := get("/records/nope"); code != http.StatusNotFound {
		t.Fatalf("missing record = HTTP %d, want 404", code)
	}
	// Sabotage the blob: the record still exists, so this is a server
	// fault, not a 404.
	blobs, err := filepath.Glob(filepath.Join(dir, blobDirName, "b-*.bin"))
	if err != nil || len(blobs) != 1 {
		t.Fatalf("blobs = %v, %v", blobs, err)
	}
	if err := os.Remove(blobs[0]); err != nil {
		t.Fatal(err)
	}
	if code := get("/records/" + id); code != http.StatusInternalServerError {
		t.Fatalf("unloadable record = HTTP %d, want 500", code)
	}
}

// TestHTTPIngestIgnoresClientFileSizes: file_sizes is server-derived
// search metadata; honoring it on ingest would create phantom attachments
// (counted by summaries, gone after a restart).
func TestHTTPIngestIgnoresClientFileSizes(t *testing.T) {
	c, store := newPortalFixture(t)
	srv := c.BaseURL
	body := `[{"experiment":"phantom","run":1,"time":"2023-08-16T09:00:00Z","file_sizes":{"plate.png":12345}}]`
	if code := postParts(t, srv+"/ingest/batch", "", rawPart{"records", body}); code != http.StatusOK {
		t.Fatalf("ingest = HTTP %d", code)
	}
	recs := store.Search(Query{Experiment: "phantom"})
	if len(recs) != 1 || len(recs[0].FileSizes()) != 0 {
		t.Fatalf("client-supplied file_sizes honored: %+v", recs[0].FileSizes())
	}
	sum, err := store.Summarize("phantom")
	if err != nil || sum.Images != 0 {
		t.Fatalf("phantom attachment counted: %+v, %v", sum, err)
	}
}

// TestBatchClientScalesTimeout: small batches use the client as-is; a
// multi-megabyte batch (a whole campaign's attachments in one POST) gets a
// deadline that grows with the payload instead of failing deterministically
// at the read-path timeout.
func TestBatchClientScalesTimeout(t *testing.T) {
	c := NewClient("http://example.invalid")
	if got := c.batchClient(512); got != c.HTTP {
		t.Fatal("small batch should reuse the base client")
	}
	big := c.batchClient(64 << 20) // 64 MiB
	if big == c.HTTP || big.Timeout <= c.HTTP.Timeout {
		t.Fatalf("big batch timeout = %v (base %v), want scaled", big.Timeout, c.HTTP.Timeout)
	}
	// A caller that disabled the timeout keeps it disabled.
	c.HTTP.Timeout = 0
	if got := c.batchClient(64 << 20); got != c.HTTP {
		t.Fatal("disabled timeout should not be re-enabled")
	}
}

// TestHTTPClientEscapesPathSegments: experiment names and the IDs a caller
// asks for are free text, so the client escapes them into the URL path;
// unescaped, "#" and "?" would cut the path short and the request would
// miss — or, for an ID, hit the record the truncated path names.
func TestHTTPClientEscapesPathSegments(t *testing.T) {
	c, _ := newPortalFixture(t)
	for _, name := range []string{"run #1?", "50% done", "a/b", "plain"} {
		id, err := ingestOne(c, Record{Experiment: name, Run: 1, Time: time.Now(),
			Fields: map[string]any{"samples": 2}, Files: map[string][]byte{"plate.png": []byte(name)}})
		if err != nil {
			t.Fatal(err)
		}
		sum, err := c.Summary(name)
		if err != nil || sum.Experiment != name || sum.Records != 1 {
			t.Fatalf("Summary(%q) = %+v, %v", name, sum, err)
		}
		got, err := c.Get(id)
		if err != nil || got.ID != id || string(got.Files["plate.png"]) != name {
			t.Fatalf("Get(%q) = %+v, %v", id, got, err)
		}
		for _, suffix := range []string{"#x", "?x", "/x"} {
			if got, err := c.Get(id + suffix); err == nil {
				t.Fatalf("Get(%q) = record %s, want a miss", id+suffix, got.ID)
			}
		}
	}
}
