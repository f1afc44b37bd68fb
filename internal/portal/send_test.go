package portal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// allocBytes returns the bytes the process allocates per call of f,
// averaged over n calls after one warm-up call.
func allocBytes(n int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}

// TestIngestBatchKeyedStreamsAttachments: the client sends a batch's
// attachments from the records that hold them. Against a server that
// discards the body, a call with 8 MiB of attachments allocates less
// than 1 MiB, client and server together, so no batch-sized buffer is
// built.
func TestIngestBatchKeyedStreamsAttachments(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		_, _ = io.Copy(io.Discard, req.Body)
		_, _ = io.WriteString(w, `{"ids":["0"]}`)
	}))
	defer srv.Close()
	c := NewClient(srv.URL)
	rec := Record{Experiment: "stream", Time: time.Date(2023, 8, 16, 9, 0, 0, 0, time.UTC), Files: map[string][]byte{}}
	for i := range 8 {
		rec.Files[fmt.Sprintf("plate%d.png", i)] = bytes.Repeat([]byte{byte(i)}, 1<<20)
	}
	per := allocBytes(4, func() {
		if _, err := c.IngestBatchKeyed("k", []Record{rec}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d bytes allocated per 8 MiB batch", per)
	if per >= 1<<20 {
		t.Fatalf("%d bytes allocated per 8 MiB batch, want under 1 MiB", per)
	}
}

// replayCheck is a RoundTripper that checks a keyed ingest request the
// way the transport replays one: its body is as long as its
// ContentLength says, and GetBody yields the same bytes again.
type replayCheck struct {
	t   *testing.T
	got []Record // the records the body decodes to
}

func (rc *replayCheck) RoundTrip(req *http.Request) (*http.Response, error) {
	sent, err := io.ReadAll(req.Body)
	req.Body.Close()
	if err != nil {
		return nil, err
	}
	if req.ContentLength != int64(len(sent)) {
		rc.t.Errorf("ContentLength %d, %d bytes sent", req.ContentLength, len(sent))
	}
	if req.Header.Get(idempotencyHeader) == "" {
		rc.t.Errorf("no %s header", idempotencyHeader)
	}
	if req.GetBody == nil {
		return nil, errors.New("no GetBody: the transport cannot replay the request")
	}
	for range 2 {
		again, err := req.GetBody()
		if err != nil {
			return nil, err
		}
		replay, err := io.ReadAll(again)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(replay, sent) {
			rc.t.Errorf("GetBody gave %d bytes, the request sent %d others", len(replay), len(sent))
		}
	}
	rc.got, err = readRecords(req.Header.Get("Content-Type"), bytes.NewReader(sent))
	if err != nil {
		return nil, err
	}
	ids := make([]string, len(rc.got))
	for i := range ids {
		ids[i] = `"` + strconv.Itoa(i) + `"`
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {"application/json"}},
		Body:       io.NopCloser(strings.NewReader(`{"ids":[` + strings.Join(ids, ",") + `]}`)),
		Request:    req,
	}, nil
}

// TestIngestBatchKeyedRequestIsReplayable: the keyed ingest request
// carries an exact ContentLength, its key, and a GetBody that rebuilds the
// body, so the transport may resend it on a keep-alive connection the
// server had closed. The bytes sent decode to the batch.
func TestIngestBatchKeyedRequestIsReplayable(t *testing.T) {
	rc := &replayCheck{t: t}
	c := &Client{BaseURL: "http://portal.test", HTTP: &http.Client{Transport: rc}}
	recs := []Record{
		{Experiment: "replay", Run: 1, Time: time.Date(2023, 8, 16, 9, 0, 0, 0, time.UTC),
			Files: map[string][]byte{"plate.png": []byte("\x89PNG frame"), "empty": {}}},
		{Experiment: "replay", Run: 2, Time: time.Date(2023, 8, 16, 9, 1, 0, 0, time.UTC)},
	}
	ids, err := c.IngestBatchKeyed("replay-1", recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("ids %q for 2 records", ids)
	}
	for i := range recs {
		if !reflect.DeepEqual(rc.got[i].Files, recs[i].Files) {
			t.Fatalf("record %d: attachments %q, want %q", i, rc.got[i].Files, recs[i].Files)
		}
	}
}

// failingWriter is a ResponseWriter whose client has gone: every Write
// fails. It records a WriteHeader call that comes after a Write.
type failingWriter struct {
	h          http.Header
	wrote      bool
	lateHeader int // the status of a WriteHeader call after a Write
}

func (f *failingWriter) Header() http.Header { return f.h }

func (f *failingWriter) Write(p []byte) (int, error) {
	f.wrote = true
	return 0, errors.New("client gone")
}

func (f *failingWriter) WriteHeader(code int) {
	if f.wrote {
		f.lateHeader = code
	}
}

// TestGetRecordToGoneClient: when the client of GET /records/<id> has
// gone, the failed write ends the answer. The handler never calls
// WriteHeader after its first Write, as http.Error would, which net/http
// logs as a superfluous WriteHeader call.
func TestGetRecordToGoneClient(t *testing.T) {
	store := NewStore()
	ids, err := store.IngestBatchKeyed("", []Record{{Experiment: "gone", Time: time.Now(),
		Files: map[string][]byte{"plate.png": bytes.Repeat([]byte{7}, 64<<10)}}})
	if err != nil {
		t.Fatal(err)
	}
	w := &failingWriter{h: http.Header{}}
	Serve(store).ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/records/"+ids[0], nil))
	if !w.wrote {
		t.Fatal("the handler wrote nothing")
	}
	if w.lateHeader != 0 {
		t.Fatalf("WriteHeader(%d) after a Write", w.lateHeader)
	}
	if w.h.Get("Content-Length") == "" {
		t.Fatal("no Content-Length")
	}
}
