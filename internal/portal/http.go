package portal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"colormatch/internal/form"
)

// The HTTP wire protocol ("records body": the internal/form framing of
// multipart.go, a "records" JSON part then one raw part per attachment):
//   POST /ingest                      records body, one record -> {"id": ...}
//   POST /ingest/batch                records body -> {"ids": [...]}
//                                     (optional X-Idempotency-Key header:
//                                     a retried key returns the original
//                                     commit's ids without re-ingesting)
//   GET  /records/<id>                records body, one record
//   GET  /search?experiment=&run=&after=&before=&limit=&cursor=
//                                     {"records": [wireRecord], "next_cursor": ...}
//                                     (files as sizes; timestamps RFC 3339)
//   GET  /experiments                 [names]
//   GET  /experiments/<name>/summary  Summary
//   GET  /healthz                     {"ok": true}

// wireRecord is the JSON form of a Record. Attachments are reported by
// size only; their bytes travel as multipart parts (multipart.go).
type wireRecord struct {
	ID         string         `json:"id,omitempty"`
	Experiment string         `json:"experiment"`
	Run        int            `json:"run"`
	Time       time.Time      `json:"time"`
	Fields     map[string]any `json:"fields,omitempty"`
	FileSizes  map[string]int `json:"file_sizes,omitempty"`
}

func toWire(r Record) wireRecord {
	w := wireRecord{ID: r.ID, Experiment: r.Experiment, Run: r.Run, Time: r.Time, Fields: r.Fields}
	if sizes := r.FileSizes(); len(sizes) > 0 {
		w.FileSizes = sizes
	}
	return w
}

// wirePage is the JSON form of one search result page.
type wirePage struct {
	Records    []wireRecord `json:"records"`
	NextCursor string       `json:"next_cursor,omitempty"`
}

func fromWire(w wireRecord) Record {
	r := Record{ID: w.ID, Experiment: w.Experiment, Run: w.Run, Time: w.Time, Fields: w.Fields}
	if len(w.FileSizes) > 0 {
		r.sizes = w.FileSizes
	}
	return r
}

// ServeOption configures optional portal endpoints.
type ServeOption func(*serveConfig)

type serveConfig struct {
	hub *Hub
}

// WithHub attaches a streaming hub: Serve additionally mounts POST /events
// and GET /watch, and the HTML index gains its live mode.
func WithHub(h *Hub) ServeOption {
	return func(c *serveConfig) { c.hub = h }
}

// Serve returns the portal's HTTP handler backed by store.
func Serve(store *Store, opts ...ServeOption) http.Handler {
	var cfg serveConfig
	for _, o := range opts {
		o(&cfg)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/ingest", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		recs, err := readRecords(req.Header.Get("Content-Type"), req.Body)
		if err == nil && len(recs) != 1 {
			err = fmt.Errorf("%d records, want 1", len(recs))
		}
		if err != nil {
			http.Error(w, "bad record: "+err.Error(), http.StatusBadRequest)
			return
		}
		id, err := store.Ingest(recs[0])
		if err != nil {
			http.Error(w, err.Error(), ingestStatus(err))
			return
		}
		writeJSON(w, map[string]any{"id": id})
	})
	mux.HandleFunc("/ingest/batch", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		recs, err := readRecords(req.Header.Get("Content-Type"), req.Body)
		if err != nil {
			http.Error(w, "bad batch: "+err.Error(), http.StatusBadRequest)
			return
		}
		ids, err := store.IngestBatchKeyed(req.Header.Get(idempotencyHeader), recs)
		if err != nil {
			http.Error(w, err.Error(), ingestStatus(err))
			return
		}
		if ids == nil {
			ids = []string{}
		}
		writeJSON(w, map[string]any{"ids": ids})
	})
	mux.HandleFunc("/records/", func(w http.ResponseWriter, req *http.Request) {
		id := strings.TrimPrefix(req.URL.Path, "/records/")
		rec, err := store.Get(id)
		if err != nil {
			// A nonexistent record is the client's 404; a blob-load failure
			// on a record the store does have is a server fault.
			status := http.StatusInternalServerError
			if errors.Is(err, ErrNotFound) {
				status = http.StatusNotFound
			}
			http.Error(w, err.Error(), status)
			return
		}
		mw := form.NewWriter(w)
		w.Header().Set("Content-Type", mw.FormDataContentType())
		if err := writeRecords(mw, []Record{rec}); err != nil {
			// Nothing is written yet when encoding fails; a failed write
			// means the client is gone.
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/search", func(w http.ResponseWriter, req *http.Request) {
		params := req.URL.Query()
		q := Query{Experiment: params.Get("experiment"), Cursor: params.Get("cursor")}
		if runStr := params.Get("run"); runStr != "" {
			run, err := strconv.Atoi(runStr)
			if err != nil {
				http.Error(w, "bad run", http.StatusBadRequest)
				return
			}
			q.Run, q.HasRun = run, true
		}
		if limStr := params.Get("limit"); limStr != "" {
			lim, err := strconv.Atoi(limStr)
			if err != nil {
				http.Error(w, "bad limit", http.StatusBadRequest)
				return
			}
			q.Limit = lim
		}
		for param, dst := range map[string]*time.Time{"after": &q.After, "before": &q.Before} {
			if str := params.Get(param); str != "" {
				t, err := time.Parse(time.RFC3339, str)
				if err != nil {
					http.Error(w, "bad "+param+" (want RFC 3339)", http.StatusBadRequest)
					return
				}
				*dst = t
			}
		}
		page, err := store.SearchPage(q)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		out := wirePage{Records: make([]wireRecord, len(page.Records)), NextCursor: page.Next}
		for i, r := range page.Records {
			out.Records[i] = toWire(r)
		}
		writeJSON(w, out)
	})
	mux.HandleFunc("/experiments", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, store.Experiments())
	})
	mux.HandleFunc("/experiments/", func(w http.ResponseWriter, req *http.Request) {
		rest := strings.TrimPrefix(req.URL.Path, "/experiments/")
		name, ok := strings.CutSuffix(rest, "/summary")
		if !ok {
			http.Error(w, "unknown endpoint", http.StatusNotFound)
			return
		}
		sum, err := store.Summarize(name)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		writeJSON(w, sum)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, map[string]any{"ok": true, "records": store.Len()})
	})
	if cfg.hub != nil {
		registerStreamRoutes(mux, cfg.hub)
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		serveIndex(store, cfg.hub != nil, w, req)
	})
	return mux
}

// ingestStatus maps a store ingest error to an HTTP status: a bad
// submission is the client's 400, while store-side failures (closed store,
// segment or blob write errors) are 500 so a remote publisher knows a
// retry may still land.
func ingestStatus(err error) int {
	if errors.Is(err, ErrInvalid) {
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// Client publishes to and queries a remote portal over HTTP. It implements
// Ingestor.
type Client struct {
	BaseURL string
	HTTP    *http.Client
}

// NewClient returns a portal client.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimSuffix(baseURL, "/"), HTTP: &http.Client{Timeout: 30 * time.Second}}
}

// Ingest implements Ingestor over HTTP.
func (c *Client) Ingest(rec Record) (string, error) {
	var out struct {
		ID string `json:"id"`
	}
	if err := c.postRecords("ingest", "/ingest", "", []Record{rec}, &out); err != nil {
		return "", err
	}
	return out.ID, nil
}

// idempotencyHeader carries a batch's dedupe key on POST /ingest/batch.
const idempotencyHeader = "X-Idempotency-Key"

// IngestBatch implements BatchIngestor over HTTP: the whole batch travels
// in one POST /ingest/batch round-trip and is accepted or rejected as a
// unit.
func (c *Client) IngestBatch(recs []Record) ([]string, error) {
	return c.IngestBatchKeyed("", recs)
}

// IngestBatchKeyed implements KeyedBatchIngestor over HTTP: the key rides
// the X-Idempotency-Key header, so a retry of a batch whose response was
// lost in transit (after the server committed it) is answered from the
// server's dedupe memory instead of ingesting a second copy.
func (c *Client) IngestBatchKeyed(key string, recs []Record) ([]string, error) {
	if len(recs) == 0 {
		return nil, nil
	}
	var out struct {
		IDs []string `json:"ids"`
	}
	if err := c.postRecords("ingest batch", "/ingest/batch", key, recs, &out); err != nil {
		return nil, err
	}
	if len(out.IDs) != len(recs) {
		return nil, fmt.Errorf("portal: batch response has %d ids for %d records", len(out.IDs), len(recs))
	}
	return out.IDs, nil
}

// postRecords posts recs to path as one multipart records body, under the
// idempotency key when key is set, and decodes the JSON answer into out.
func (c *Client) postRecords(op, path, key string, recs []Record, out any) error {
	var body bytes.Buffer
	// Room for every attachment up front, so the multi-megabyte frames are
	// copied into the body once; the records part and part headers fit in
	// the slack or grow the buffer once.
	n := 64 << 10
	for _, rec := range recs {
		for _, data := range rec.Files {
			n += len(data)
		}
	}
	body.Grow(n)
	mw := form.NewWriter(&body)
	if err := writeRecords(mw, recs); err != nil {
		return fmt.Errorf("portal: %s: %w", op, err)
	}
	req, err := http.NewRequest(http.MethodPost, c.BaseURL+path, bytes.NewReader(body.Bytes()))
	if err != nil {
		return fmt.Errorf("portal: %s: %w", op, err)
	}
	req.Header.Set("Content-Type", mw.FormDataContentType())
	if key != "" {
		req.Header.Set(idempotencyHeader, key)
	}
	resp, err := c.batchClient(body.Len()).Do(req)
	if err != nil {
		return fmt.Errorf("portal: %s: %w", op, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return ingestError(op, resp)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("portal: decode %s response: %w", op, err)
	}
	return nil
}

// batchClient returns the HTTP client to use for an n-byte records upload.
// The default 30s total timeout is sized for single records and queries; a
// whole campaign's attachments travel as raw parts of one batch POST, so
// the deadline grows with the payload (one extra second per 256KiB) —
// otherwise a large campaign would time out deterministically on every
// flush attempt where the per-record publish path it replaced fit each
// record comfortably.
func (c *Client) batchClient(n int) *http.Client {
	if c.HTTP.Timeout <= 0 || n < 1<<20 {
		return c.HTTP
	}
	scaled := *c.HTTP
	scaled.Timeout += time.Duration(n/(256<<10)) * time.Second
	return &scaled
}

// ingestError converts a non-200 ingest response into an error, carrying
// the server's verdict back as ErrInvalid on exactly 400 — the portal's
// only invalid-submission status — so publishers (errors.Is(err,
// ErrInvalid)) do not burn retries on a hopeless resend. Other 4xx codes
// (a proxy's 408/429, say) stay plain errors and remain retryable.
func ingestError(op string, resp *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
	err := fmt.Errorf("portal: %s: HTTP %d: %s", op, resp.StatusCode, strings.TrimSpace(string(msg)))
	if resp.StatusCode == http.StatusBadRequest {
		err = fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	return err
}

// Summary fetches an experiment summary.
func (c *Client) Summary(experiment string) (Summary, error) {
	var sum Summary
	err := c.getJSON("/experiments/"+url.PathEscape(experiment)+"/summary", &sum)
	return sum, err
}

// Search queries records (attachments reported as sizes only). For
// cursor-based pagination use SearchPage.
func (c *Client) Search(experiment string, limit int) ([]Record, error) {
	page, err := c.SearchPage(Query{Experiment: experiment, Limit: limit})
	if err != nil {
		return nil, err
	}
	return page.Records, nil
}

// SearchPage queries one page of records, mirroring Store.SearchPage over
// the wire: pass Page.Next back as Query.Cursor to continue the listing.
func (c *Client) SearchPage(q Query) (Page, error) {
	params := url.Values{}
	if q.Experiment != "" {
		params.Set("experiment", q.Experiment)
	}
	if q.HasRun {
		params.Set("run", strconv.Itoa(q.Run))
	}
	if q.Limit > 0 {
		params.Set("limit", strconv.Itoa(q.Limit))
	}
	if q.Cursor != "" {
		params.Set("cursor", q.Cursor)
	}
	// RFC3339Nano keeps sub-second precision on the wire; the server's
	// RFC 3339 parse accepts fractional seconds, so a remote time window
	// matches the same Query against a local store exactly.
	if !q.After.IsZero() {
		params.Set("after", q.After.Format(time.RFC3339Nano))
	}
	if !q.Before.IsZero() {
		params.Set("before", q.Before.Format(time.RFC3339Nano))
	}
	var wp wirePage
	if err := c.getJSON("/search?"+params.Encode(), &wp); err != nil {
		return Page{}, err
	}
	page := Page{Next: wp.NextCursor}
	for _, w := range wp.Records {
		page.Records = append(page.Records, fromWire(w))
	}
	return page, nil
}

// Get fetches one full record including attachments.
func (c *Client) Get(id string) (Record, error) {
	resp, err := c.get("/records/" + url.PathEscape(id))
	if err != nil {
		return Record{}, err
	}
	defer resp.Body.Close()
	recs, err := readRecords(resp.Header.Get("Content-Type"), resp.Body)
	if err == nil && len(recs) != 1 {
		err = fmt.Errorf("%d records, want 1", len(recs))
	}
	if err != nil {
		return Record{}, fmt.Errorf("portal: decode record %s: %w", id, err)
	}
	return recs[0], nil
}

func (c *Client) getJSON(path string, v any) error {
	resp, err := c.get(path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// get fetches path and returns the response when it is a 200; the caller
// closes its body.
func (c *Client) get(path string) (*http.Response, error) {
	resp, err := c.HTTP.Get(c.BaseURL + path)
	if err != nil {
		return nil, fmt.Errorf("portal: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return nil, fmt.Errorf("portal: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	return resp, nil
}

// RenderSummary writes the Figure 3 "summary view" as text.
func RenderSummary(w io.Writer, sum Summary) {
	fmt.Fprintf(w, "Experiment: %s\n", sum.Experiment)
	fmt.Fprintf(w, "  Runs:     %d\n", sum.Runs)
	fmt.Fprintf(w, "  Records:  %d\n", sum.Records)
	fmt.Fprintf(w, "  Samples:  %d\n", sum.Samples)
	fmt.Fprintf(w, "  Images:   %d\n", sum.Images)
	fmt.Fprintf(w, "  Best score: %.2f\n", sum.BestScore)
	fmt.Fprintf(w, "  Window:   %s .. %s\n",
		sum.First.Format(time.RFC3339), sum.Last.Format(time.RFC3339))
}

// RenderRecord writes the Figure 3 "detailed data from run" view as text.
func RenderRecord(w io.Writer, rec Record) {
	fmt.Fprintf(w, "Record %s (experiment %s, run #%d, %s)\n",
		rec.ID, rec.Experiment, rec.Run, rec.Time.Format(time.RFC3339))
	keys := make([]string, 0, len(rec.Fields))
	for k := range rec.Fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-18s %v\n", k+":", rec.Fields[k])
	}
	names := make([]string, 0, len(rec.Files))
	for name := range rec.Files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  file %-13s %d bytes\n", name, len(rec.Files[name]))
	}
}
