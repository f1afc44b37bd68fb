package portal

import (
	"bytes"
	"errors"
	"fmt"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"net/textproto"
	"strings"
	"testing"
	"time"
)

// rawPart is one hand-built multipart part: a form-data part named name,
// or a part with no Content-Disposition at all when name is empty.
type rawPart struct{ name, body string }

// rawBody builds a multipart body part by part, the way a non-Go client
// would, and returns its Content-Type and bytes.
func rawBody(t testing.TB, parts ...rawPart) (string, []byte) {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for _, p := range parts {
		h := textproto.MIMEHeader{}
		if p.name != "" {
			h.Set("Content-Disposition", fmt.Sprintf("form-data; name=%q", p.name))
		}
		pw, err := mw.CreatePart(h)
		if err != nil {
			t.Fatal(err)
		}
		pw.Write([]byte(p.body))
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	return mw.FormDataContentType(), buf.Bytes()
}

// postParts posts a hand-built multipart body to url and returns the HTTP
// status.
func postParts(t *testing.T, url, key string, parts ...rawPart) int {
	t.Helper()
	ct, body := rawBody(t, parts...)
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ct)
	if key != "" {
		req.Header.Set(idempotencyHeader, key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestReadRecordsRejectsMalformedBodies: every malformed body is a 400
// from the write endpoint, never a panic and never a partial ingest —
// posted bare ("ingest/batch/…") and under an idempotency key as the
// publish flow sends its one-record batches ("ingest/…"). A refused keyed
// body must not burn its key: the same key then commits a good batch.
func TestReadRecordsRejectsMalformedBodies(t *testing.T) {
	two := rawPart{"records", `[{"experiment":"x"},{"experiment":"x"}]`}
	cases := []struct {
		name  string
		parts []rawPart
	}{
		{"empty body", nil},
		{"no records part", []rawPart{{"0/plate.png", "img"}}},
		{"second records part", []rawPart{two, {"records", `[{"experiment":"y"}]`}}},
		{"attachment before records", []rawPart{{"0/plate.png", "img"}, two}},
		{"records not JSON", []rawPart{{"records", `[{"experiment":`}}},
		{"records not an array", []rawPart{{"records", `{"experiment":"x"}`}}},
		{"records with trailing data", []rawPart{{"records", `[{"experiment":"x"}] []`}}},
		{"non-numeric index", []rawPart{two, {"one/plate.png", "img"}}},
		{"empty index", []rawPart{two, {"/plate.png", "img"}}},
		{"negative index", []rawPart{two, {"-1/plate.png", "img"}}},
		{"index out of range", []rawPart{two, {"2/plate.png", "img"}}},
		{"huge index", []rawPart{two, {"99999999999999999999/plate.png", "img"}}},
		{"duplicate attachment", []rawPart{two, {"1/plate.png", "a"}, {"1/plate.png", "b"}}},
		{"duplicate empty attachment", []rawPart{two, {"0/e", ""}, {"0/e", ""}}},
		{"unknown part", []rawPart{two, {"comment", "hi"}}},
		{"part without a name", []rawPart{two, {"", "img"}}},
	}
	for _, v := range []struct{ name, key string }{{"ingest/batch", ""}, {"ingest", "malformed-1"}} {
		for _, tc := range cases {
			t.Run(v.name+"/"+tc.name, func(t *testing.T) {
				c, store := newPortalFixture(t)
				url := c.BaseURL + "/ingest/batch"
				if code := postParts(t, url, v.key, tc.parts...); code != http.StatusBadRequest {
					t.Fatalf("HTTP %d, want 400", code)
				}
				if store.Len() != 0 {
					t.Fatalf("%d records ingested from a malformed body", store.Len())
				}
				if v.key == "" {
					return
				}
				if code := postParts(t, url, v.key, rawPart{"records", `[{"experiment":"x"}]`}); code != http.StatusOK || store.Len() != 1 {
					t.Fatalf("key burned by a refused body: HTTP %d, %d records", code, store.Len())
				}
			})
		}
	}
}

// TestIngestRejectsNonMultipartBodies: a body in any other encoding,
// including the JSON-with-base64 form the portal once spoke, is refused
// rather than ingested with its attachments dropped.
func TestIngestRejectsNonMultipartBodies(t *testing.T) {
	c, store := newPortalFixture(t)
	one := `{"experiment":"old","run":1,"time":"2023-08-16T09:00:00Z","files":{"plate.png":"aW1n"}}`
	for _, tc := range []struct{ ct, body string }{
		{"application/json", one},
		{"application/json", "[" + one + "]"},
		{"", "[" + one + "]"},
		{"multipart/form-data", "[" + one + "]"}, // no boundary
		{"multipart/mixed; boundary=x", "--x\r\n\r\n[]\r\n--x--\r\n"},
	} {
		resp, err := http.Post(c.BaseURL+"/ingest/batch", tc.ct, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%q body %.20q = HTTP %d, want 400", tc.ct, tc.body, resp.StatusCode)
		}
	}
	if store.Len() != 0 {
		t.Fatalf("%d records ingested from non-multipart bodies", store.Len())
	}
}

// TestMultipartRoundTrip: attachments cross the wire byte for byte in both
// directions, whatever their names and contents, through the in-memory
// and the disk-backed store alike.
func TestMultipartRoundTrip(t *testing.T) {
	every := make([]byte, 256)
	for i := range every {
		every[i] = byte(i)
	}
	t0 := time.Date(2023, 8, 16, 9, 0, 0, 0, time.UTC)
	recs := []Record{
		{Experiment: "rt", Run: 1, Time: t0, Fields: map[string]any{"best_score": 3.5},
			Files: map[string][]byte{
				"a/b.png":              []byte("nested"),
				`say "cheese".png`:     []byte("quoted"),
				`back\slash.bin`:       []byte("backslash"),
				"plättchen-色-🎨.png":    []byte("non-ASCII"),
				"empty.bin":            {},
				"all-bytes.bin":        every,
				"boundary-lookalike":   []byte("\r\n--" + strings.Repeat("-", 70) + "\r\n"),
				"semi;colon=and,comma": []byte("tspecials"),
				"tab\tname":            []byte("tab"),
			}},
		{Experiment: "rt", Run: 2, Time: t0.Add(time.Minute), Fields: map[string]any{"samples": 4.0}},
		{Experiment: "rt", Run: 3, Time: t0.Add(2 * time.Minute),
			Files: map[string][]byte{"a/b.png": []byte("same name, other record")}},
	}
	stores := map[string]func() *Store{
		"memory": NewStore,
		"disk": func() *Store {
			st, err := OpenStoreWith(t.TempDir(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { st.Close() })
			return st
		},
	}
	for kind, open := range stores {
		t.Run(kind, func(t *testing.T) {
			store := open()
			srv := httptest.NewServer(Serve(store))
			defer srv.Close()
			c := NewClient(srv.URL)
			ids, err := c.IngestBatchKeyed("", recs)
			if err != nil {
				t.Fatal(err)
			}
			single, err := ingestOne(c, recs[0])
			if err != nil {
				t.Fatal(err)
			}
			for i, id := range append(ids, single) {
				want := recs[i%len(recs)]
				got, err := c.Get(id)
				if err != nil {
					t.Fatal(err)
				}
				if got.ID != id || got.Experiment != want.Experiment || got.Run != want.Run ||
					!got.Time.Equal(want.Time) || fmt.Sprint(got.Fields) != fmt.Sprint(want.Fields) {
					t.Fatalf("record %s = %+v, want %+v", id, got, want)
				}
				if len(got.Files) != len(want.Files) {
					t.Fatalf("record %s: %d attachments, want %d", id, len(got.Files), len(want.Files))
				}
				for name, data := range want.Files {
					if b, ok := got.Files[name]; !ok || !bytes.Equal(b, data) {
						t.Fatalf("record %s: attachment %q = %q (present %v), want %q", id, name, b, ok, data)
					}
				}
			}

			// A search result carries sizes but no bytes; ingesting it again
			// sends those sizes as file_sizes, which stay ignored.
			found, err := c.Search("rt", 1)
			if err != nil || len(found) != 1 || len(found[0].FileSizes()) == 0 {
				t.Fatalf("search = %+v, %v", found, err)
			}
			again := found[0]
			again.ID, again.Experiment = "", "rt_sizes_only"
			if _, err := c.IngestBatchKeyed("", []Record{again}); err != nil {
				t.Fatal(err)
			}
			if sum, err := c.Summary("rt_sizes_only"); err != nil || sum.Images != 0 {
				t.Fatalf("client-supplied file_sizes honored: %+v, %v", sum, err)
			}
		})
	}
}

// TestWriteRecordsIsDeterministic: one batch encodes to the same bytes on
// every call, its attachments ordered by record, then by name, whatever
// order the Files maps range in.
func TestWriteRecordsIsDeterministic(t *testing.T) {
	recs := make([]Record, 3)
	for i := range recs {
		recs[i] = Record{Experiment: "det", Run: i, Files: map[string][]byte{}}
		for _, name := range []string{"z.png", "a.png", "m/n.bin", "b.json", "plate.png"} {
			recs[i].Files[name] = []byte(fmt.Sprintf("%d:%s", i, name))
		}
	}
	encode := func() []byte {
		var buf bytes.Buffer
		mw := multipart.NewWriter(&buf)
		if err := mw.SetBoundary("detboundary"); err != nil {
			t.Fatal(err)
		}
		if err := writeRecords(mw, recs); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := encode()
	for range 19 {
		if got := encode(); !bytes.Equal(got, first) {
			t.Fatalf("batch encoded to different bytes:\n%s\nthen\n%s", first, got)
		}
	}
	if i, j := bytes.Index(first, []byte(`name="0/a.png"`)), bytes.Index(first, []byte(`name="0/b.json"`)); i < 0 || j < i {
		t.Fatalf("record 0's attachments not in name order:\n%s", first)
	}
}

// TestWriteRecordsRejectsControlCharacterNames: a part header cannot hold
// a line break or another ASCII control character but tab, so the client
// refuses such a name (ErrInvalid, nothing sent) instead of letting it end
// the header early or be refused by the server.
func TestWriteRecordsRejectsControlCharacterNames(t *testing.T) {
	c, store := newPortalFixture(t)
	for _, name := range []string{"a\r\nContent-Type: text/html", "a\nb", "a\rb", "nul\x00", "del\x7f", "esc\x1b[0m"} {
		rec := Record{Experiment: "crlf", Time: time.Now(), Files: map[string][]byte{name: []byte("x")}}
		if _, err := ingestOne(c, rec); !errors.Is(err, ErrInvalid) {
			t.Fatalf("name %q: err = %v, want ErrInvalid", name, err)
		}
	}
	if store.Len() != 0 {
		t.Fatalf("%d records ingested", store.Len())
	}
}

// FuzzReadRecords: decoding arbitrary bytes never panics, and whatever it
// accepts re-encodes to a body that decodes to the same records.
func FuzzReadRecords(f *testing.F) {
	const boundary = "fuzzboundary"
	encode := func(recs []Record) []byte {
		var buf bytes.Buffer
		mw := multipart.NewWriter(&buf)
		if err := mw.SetBoundary(boundary); err != nil {
			f.Fatal(err)
		}
		if err := writeRecords(mw, recs); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(encode([]Record{
		{Experiment: "fz", Run: 1, Time: time.Date(2023, 8, 16, 9, 0, 0, 0, time.UTC),
			Fields: map[string]any{"score": 1.5},
			Files:  map[string][]byte{"plate.png": {0x89, 'P', 'N', 'G'}, "a/b": {}}},
		{Experiment: "fz", Run: 2},
	}))
	f.Add(encode(nil))
	f.Add([]byte("--fuzzboundary\r\nContent-Disposition: form-data; name=\"records\"\r\n\r\n[{}]\r\n" +
		"--fuzzboundary\r\nContent-Disposition: form-data; name=\"0/x\"\r\n\r\nraw\r\n--fuzzboundary--\r\n"))
	ct := "multipart/form-data; boundary=" + boundary
	f.Fuzz(func(t *testing.T, body []byte) {
		recs, err := readRecords(ct, bytes.NewReader(body))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		mw := multipart.NewWriter(&buf)
		if err := writeRecords(mw, recs); err != nil {
			t.Fatalf("accepted records do not re-encode: %v", err)
		}
		again, err := readRecords(mw.FormDataContentType(), &buf)
		if err != nil {
			t.Fatalf("re-encoded body rejected: %v", err)
		}
		if len(again) != len(recs) {
			t.Fatalf("%d records, then %d", len(recs), len(again))
		}
		for i := range recs {
			if len(again[i].Files) != len(recs[i].Files) {
				t.Fatalf("record %d: %d attachments, then %d", i, len(recs[i].Files), len(again[i].Files))
			}
			for name, data := range recs[i].Files {
				if !bytes.Equal(again[i].Files[name], data) {
					t.Fatalf("record %d: attachment %q changed across a round trip", i, name)
				}
			}
		}
	})
}
