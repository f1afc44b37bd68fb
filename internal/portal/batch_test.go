package portal

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// buffered reports how many records buf holds: the frozen in-flight batch
// plus the queue behind it.
func buffered(buf *Buffer) int {
	buf.box.mu.Lock()
	defer buf.box.mu.Unlock()
	return len(buf.box.frozen) + len(buf.box.queue)
}

func TestIngestBatchAssignsIDs(t *testing.T) {
	s := NewStore()
	recs := diskRecords(4)
	ids, err := s.IngestBatchKeyed("", recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 4 || s.Len() != 4 {
		t.Fatalf("ids=%v Len=%d", ids, s.Len())
	}
	for i, id := range ids {
		got, err := s.Get(id)
		if err != nil || got.Run != i {
			t.Fatalf("id %s -> %+v, %v", id, got, err)
		}
	}
}

// TestIngestBatchAtomicValidation: one bad record anywhere in the batch
// rejects the whole batch, leaving the store unchanged.
func TestIngestBatchAtomicValidation(t *testing.T) {
	s := NewStore()
	recs := diskRecords(3)
	recs[2].Experiment = "" // poisoned
	if _, err := s.IngestBatchKeyed("", recs); err == nil {
		t.Fatal("batch with invalid record accepted")
	}
	if s.Len() != 0 {
		t.Fatalf("partial batch ingested: Len = %d", s.Len())
	}

	// So is a batch with a record carrying an ID, even the very ID the
	// store would have assigned it.
	supplied := diskRecords(2)
	supplied[1].ID = "rec-000002"
	if _, err := s.IngestBatchKeyed("", supplied); !errors.Is(err, ErrInvalid) {
		t.Fatalf("batch with a supplied id: %v, want ErrInvalid", err)
	}
	if s.Len() != 0 {
		t.Fatalf("partial batch ingested: Len = %d", s.Len())
	}
}

// TestIngestBatchDoesNotMutateCaller: ID assignment happens on a private
// copy, so the caller's records (e.g. a Buffer retrying a failed flush)
// never carry provisional IDs from an attempt that did not commit.
func TestIngestBatchDoesNotMutateCaller(t *testing.T) {
	s := NewStore()
	recs := []Record{{Experiment: "e", Time: time.Now()}, {Experiment: "e", Time: time.Now()}}
	ids, err := s.IngestBatchKeyed("", recs)
	if err != nil || len(ids) != 2 {
		t.Fatalf("batch: %v, %v", ids, err)
	}
	for i, r := range recs {
		if r.ID != "" {
			t.Fatalf("caller record %d was stamped with id %q", i, r.ID)
		}
	}
}

// TestBufferFlushRetriesAfterTransientFailure: a destination that fails
// once must accept the identical batch on the retry — the failed attempt
// may not poison the buffered records.
func TestBufferFlushRetriesAfterTransientFailure(t *testing.T) {
	s := NewStore()
	flaky := &flakyBatcher{dest: s, failures: 1}
	buf := NewBuffer(flaky)
	for i := 0; i < 3; i++ {
		buf.Add(Record{Experiment: "retry", Run: i, Time: time.Now()})
	}
	if _, err := buf.box.flush(); err == nil {
		t.Fatal("first flush should fail")
	}
	ids, err := buf.box.flush()
	if err != nil || len(ids) != 3 {
		t.Fatalf("retried flush: %v, %v", ids, err)
	}
	if n := buffered(buf); s.Len() != 3 || n != 0 {
		t.Fatalf("after retry: store=%d buffer=%d", s.Len(), n)
	}
}

// flakyBatcher fails its first `failures` IngestBatchKeyed calls, then
// delegates.
type flakyBatcher struct {
	dest     Ingestor
	failures int
}

func (f *flakyBatcher) IngestBatchKeyed(key string, recs []Record) ([]string, error) {
	if f.failures > 0 {
		f.failures--
		return nil, errTransient
	}
	return f.dest.IngestBatchKeyed(key, recs)
}

var errTransient = fmt.Errorf("transient portal outage")

// TestBufferRetryAfterLostResponseDoesNotDoubleIngest is the partial-HTTP-
// failure scenario: the server commits the batch but the response is lost
// (here: replaced with a 500 by a fault-injecting proxy). The client sees
// an error, the Buffer retains the records, and the retried flush must not
// ingest a second copy — the idempotency key carried on both attempts lets
// the server answer the retry from its dedupe memory.
func TestBufferRetryAfterLostResponseDoesNotDoubleIngest(t *testing.T) {
	store := NewStore()
	handler := Serve(store)
	var lose atomic.Bool
	lose.Store(true)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/ingest/batch" && lose.CompareAndSwap(true, false) {
			// Let the store commit, then lose the response on the wire.
			handler.ServeHTTP(httptest.NewRecorder(), req)
			http.Error(w, "gateway timeout", http.StatusGatewayTimeout)
			return
		}
		handler.ServeHTTP(w, req)
	}))
	defer srv.Close()

	buf := NewBuffer(NewClient(srv.URL))
	t0 := time.Date(2023, 8, 16, 9, 0, 0, 0, time.UTC)
	for i := 0; i < 4; i++ {
		if err := buf.Add(Record{Experiment: "lost", Run: i, Time: t0.Add(time.Duration(i) * time.Minute)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := buf.box.flush(); err == nil {
		t.Fatal("flush through lost response reported success")
	}
	// The server-side store already has the batch; the retry must not
	// double it.
	if store.Len() != 4 {
		t.Fatalf("server store has %d records after lost response, want 4", store.Len())
	}
	ids, err := buf.box.flush()
	if err != nil {
		t.Fatalf("retried flush: %v", err)
	}
	if len(ids) != 4 {
		t.Fatalf("retried flush returned %d ids, want the original 4", len(ids))
	}
	if store.Len() != 4 {
		t.Fatalf("retry double-ingested: store has %d records, want 4", store.Len())
	}
	// The returned IDs are the original commit's: every one resolves.
	for _, id := range ids {
		if _, err := store.Get(id); err != nil {
			t.Fatalf("id %s from deduped retry: %v", id, err)
		}
	}
	if got := store.Search(Query{Experiment: "lost"}); len(got) != 4 {
		t.Fatalf("experiment has %d records, want 4", len(got))
	}
}

// TestKeyedBatchDedupeSurvivesRestart: idempotency keys ride the segment
// log, so a retry that straddles a portal restart is still answered with
// the original commit instead of re-ingesting.
func TestKeyedBatchDedupeSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStoreWith(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs := diskRecords(3)
	ids, err := s.IngestBatchKeyed("campaign-7", recs)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	reopened, err := OpenStoreWith(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	again, err := reopened.IngestBatchKeyed("campaign-7", recs)
	if err != nil {
		t.Fatalf("retry after restart: %v", err)
	}
	if reopened.Len() != 3 {
		t.Fatalf("retry after restart double-ingested: Len = %d", reopened.Len())
	}
	if len(again) != len(ids) {
		t.Fatalf("retry ids = %v, original %v", again, ids)
	}
	for i := range ids {
		if again[i] != ids[i] {
			t.Fatalf("retry ids = %v, original %v", again, ids)
		}
	}
	// The dedupe memory also survives a compaction + restart: keys ride the
	// snapshot segment too.
	if err := reopened.Compact(); err != nil {
		t.Fatal(err)
	}
	reopened.Close()
	again2, err := OpenStoreWith(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer again2.Close()
	third, err := again2.IngestBatchKeyed("campaign-7", recs)
	if err != nil || len(third) != 3 || again2.Len() != 3 {
		t.Fatalf("retry after compaction: ids=%v err=%v Len=%d", third, err, again2.Len())
	}
}

// TestKeyMemoryEvictsOldestPastCap: the store's and the hub's dedupe
// memories hold at most maxBatchKeys keys. One key past the cap the oldest
// is forgotten, so its retry commits anew, while the newest is still
// answered; and re-remembering a key does not add a second order entry.
func TestKeyMemoryEvictsOldestPastCap(t *testing.T) {
	s := NewStore()
	h, err := OpenHub(HubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	t0 := time.Date(2023, 8, 16, 9, 0, 0, 0, time.UTC)
	key := func(i int) string { return fmt.Sprintf("k%d", i) }
	write := func(i int) {
		t.Helper()
		if _, err := s.IngestBatchKeyed(key(i), []Record{{Experiment: "cap", Run: i, Time: t0}}); err != nil {
			t.Fatal(err)
		}
		if _, err := h.PublishEventsKeyed(key(i), []StreamEvent{benchEvent("cap", i)}); err != nil {
			t.Fatal(err)
		}
	}
	checkOrder := func(oldest string) {
		t.Helper()
		for name, order := range map[string][]string{"store": s.batches.order, "hub": h.keys.order} {
			if len(order) != maxBatchKeys || order[0] != oldest {
				t.Fatalf("%s remembers %d keys from %q, want %d from %q", name, len(order), order[0], maxBatchKeys, oldest)
			}
		}
	}
	for i := 0; i <= maxBatchKeys; i++ {
		write(i)
	}
	checkOrder(key(1))
	n := maxBatchKeys + 1
	write(maxBatchKeys) // the newest key is still answered from memory
	if s.Len() != n || h.LastSeq() != int64(n) {
		t.Fatalf("remembered key re-ingested: store=%d hub=%d, want %d", s.Len(), h.LastSeq(), n)
	}
	write(0) // the evicted key commits anew
	if s.Len() != n+1 || h.LastSeq() != int64(n+1) {
		t.Fatalf("evicted key still answered: store=%d hub=%d, want %d", s.Len(), h.LastSeq(), n+1)
	}
	checkOrder(key(2))
	s.batches.put(key(5), slotSpan{})
	h.keys.put(key(5), "")
	checkOrder(key(2))
}

// keyRecorder records every keyed batch call it forwards.
type keyRecorder struct {
	*Store
	keys  []string
	sizes []int
}

func (k *keyRecorder) IngestBatchKeyed(key string, recs []Record) ([]string, error) {
	k.keys = append(k.keys, key)
	k.sizes = append(k.sizes, len(recs))
	if len(k.keys) == 1 {
		return nil, errTransient // first attempt dies before the store sees it
	}
	return k.Store.IngestBatchKeyed(key, recs)
}

// TestBufferQueuesNewRecordsDuringRetry: records ingested between a failed
// flush and its retry must not mutate the in-flight batch — the retry
// resends the frozen batch under its original key (so dedupe can work),
// and the newcomers follow as a second batch under a fresh key.
func TestBufferQueuesNewRecordsDuringRetry(t *testing.T) {
	dest := &keyRecorder{Store: NewStore()}
	buf := NewBuffer(dest)
	t0 := time.Date(2023, 8, 16, 9, 0, 0, 0, time.UTC)
	for i := 0; i < 3; i++ {
		buf.Add(Record{Experiment: "q", Run: i, Time: t0.Add(time.Duration(i) * time.Minute)})
	}
	if _, err := buf.box.flush(); err == nil {
		t.Fatal("first flush should fail")
	}
	for i := 3; i < 5; i++ {
		buf.Add(Record{Experiment: "q", Run: i, Time: t0.Add(time.Duration(i) * time.Minute)})
	}
	if n := buffered(buf); n != 5 {
		t.Fatalf("buffer Len = %d, want 5", n)
	}
	ids, err := buf.box.flush()
	if err != nil || len(ids) != 5 {
		t.Fatalf("retry flush: %v, %v", ids, err)
	}
	if dest.Len() != 5 {
		t.Fatalf("store has %d records, want 5", dest.Len())
	}
	if len(dest.keys) != 3 {
		t.Fatalf("keyed calls = %d (%v), want 3 (fail, retry, second batch)", len(dest.keys), dest.keys)
	}
	if dest.keys[0] == "" || dest.keys[0] != dest.keys[1] {
		t.Fatalf("retry did not reuse the frozen batch's key: %v", dest.keys)
	}
	if dest.keys[2] == dest.keys[0] {
		t.Fatalf("second batch reused the first batch's key: %v", dest.keys)
	}
	if dest.sizes[0] != 3 || dest.sizes[1] != 3 || dest.sizes[2] != 2 {
		t.Fatalf("batch sizes = %v, want [3 3 2]", dest.sizes)
	}
}

func TestIngestBatchEmpty(t *testing.T) {
	s := NewStore()
	ids, err := s.IngestBatchKeyed("", nil)
	if err != nil || ids != nil {
		t.Fatalf("empty batch: %v, %v", ids, err)
	}
}

func TestBufferFlushesOnce(t *testing.T) {
	s := NewStore()
	buf := NewBuffer(s)
	t0 := time.Date(2023, 8, 16, 9, 0, 0, 0, time.UTC)
	for i := 0; i < 5; i++ {
		if err := buf.Add(Record{Experiment: "buf", Run: i, Time: t0.Add(time.Duration(i) * time.Minute)}); err != nil {
			t.Fatalf("buffer add: %v", err)
		}
	}
	if s.Len() != 0 {
		t.Fatal("buffer leaked records before flush")
	}
	if n := buffered(buf); n != 5 {
		t.Fatalf("buffer Len = %d", n)
	}
	ids, err := buf.box.flush()
	if err != nil || len(ids) != 5 {
		t.Fatalf("flush: %v, %v", ids, err)
	}
	if n := buffered(buf); s.Len() != 5 || n != 0 {
		t.Fatalf("after flush: store=%d buffer=%d", s.Len(), n)
	}
	// Empty re-flush is a no-op.
	if ids, err := buf.box.flush(); err != nil || ids != nil {
		t.Fatalf("re-flush: %v, %v", ids, err)
	}
}

func TestBufferRetainsRecordsOnFailedFlush(t *testing.T) {
	s := NewStore()
	buf := NewBuffer(s)
	for i := 0; i < 3; i++ {
		if err := buf.Add(Record{Experiment: "ok", Time: time.Now()}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := buf.box.flush(); err == nil {
		t.Fatal("flush into a closed store succeeded")
	}
	// Nothing was lost: the records are still buffered for a retry.
	if n := buffered(buf); n != 3 {
		t.Fatalf("buffer Len after failed flush = %d", n)
	}
	if s.Len() != 0 {
		t.Fatalf("failed flush partially ingested: %d", s.Len())
	}
	if err := buf.Add(Record{}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("buffer add of record without experiment: %v, want ErrInvalid", err)
	}
}

// TestBufferAddRejectsRecordWithoutExperiment: a record without an
// experiment name is rejected as ErrInvalid before anything is queued, so
// its valid companions in the same call are not queued either and nothing
// reaches the destination.
func TestBufferAddRejectsRecordWithoutExperiment(t *testing.T) {
	s := NewStore()
	buf := NewBuffer(s)
	err := buf.Add(Record{Experiment: "ok", Time: time.Now()}, Record{Run: 2, Time: time.Now()})
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("Add = %v, want ErrInvalid", err)
	}
	if n := buffered(buf); n != 0 {
		t.Fatalf("rejected Add queued %d records", n)
	}
	if ids, err := buf.Deliver(context.Background()); err != nil || ids != nil || s.Len() != 0 {
		t.Fatalf("Deliver = %v, %v; store has %d records, want none", ids, err, s.Len())
	}
}

// TestAutoIDSkipsClaimedSequenceNumbers: a client cannot claim a sequence
// number by supplying an ID shaped like the generator's output (any client
// can POST one), because every ID is a record's position and the store
// rejects supplied ones. So the rejection leaves the sequence untouched and
// auto-ID ingestion, in single records and batches alike, goes on
// numbering from where it was.
func TestAutoIDSkipsClaimedSequenceNumbers(t *testing.T) {
	s := NewStore()
	now := time.Now()
	if _, err := ingestOne(s, Record{ID: "rec-000001", Experiment: "squat", Time: now}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("claimed sequence id: %v, want ErrInvalid", err)
	}
	id, err := ingestOne(s, Record{Experiment: "auto", Time: now})
	if err != nil || id != "rec-000001" {
		t.Fatalf("first auto id = %q, %v; want rec-000001", id, err)
	}
	if _, err := s.IngestBatchKeyed("", []Record{
		{Experiment: "auto", Time: now},
		{ID: "rec-000003", Experiment: "squat", Time: now},
	}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("batch claiming a later sequence id: %v, want ErrInvalid", err)
	}
	ids, err := s.IngestBatchKeyed("", []Record{{Experiment: "auto", Time: now}, {Experiment: "auto", Time: now}})
	if err != nil || strings.Join(ids, ",") != "rec-000002,rec-000003" {
		t.Fatalf("batch ids = %v, %v; want rec-000002,rec-000003", ids, err)
	}
	for slot, id := range append([]string{"rec-000001"}, ids...) {
		if got, err := s.Get(id); err != nil || got.ID != id || got.Experiment != "auto" {
			t.Fatalf("Get(%s) = %+v, %v; want the auto record in slot %d", id, got, err, slot)
		}
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
}

// TestSuppliedIDRejected: the store alone assigns IDs, so a record that
// arrives carrying one is refused as ErrInvalid wherever it enters — the
// Buffer, the Store and POST /ingest/batch (HTTP 400) — and nothing is
// stored.
func TestSuppliedIDRejected(t *testing.T) {
	s := NewStore()
	supplied := []Record{{Experiment: "ok", Time: time.Now()}, {ID: "mine", Experiment: "ok", Time: time.Now()}}
	buf := NewBuffer(s)
	if err := buf.Add(supplied...); !errors.Is(err, ErrInvalid) {
		t.Fatalf("Buffer.Add = %v, want ErrInvalid", err)
	}
	if n := buffered(buf); n != 0 {
		t.Fatalf("rejected Add queued %d records", n)
	}
	if ids, err := s.IngestBatchKeyed("k-1", supplied); !errors.Is(err, ErrInvalid) || ids != nil {
		t.Fatalf("IngestBatchKeyed = %v, %v; want ErrInvalid", ids, err)
	}
	srv := httptest.NewServer(Serve(s))
	defer srv.Close()
	body := `[{"experiment":"ok"},{"id":"rec-000002","experiment":"ok"}]`
	if code := postParts(t, srv.URL+"/ingest/batch", "k-2", rawPart{"records", body}); code != http.StatusBadRequest {
		t.Fatalf("POST with a supplied id = HTTP %d, want 400", code)
	}
	if s.Len() != 0 || len(s.Experiments()) != 0 {
		t.Fatalf("store holds %d records after rejected submissions", s.Len())
	}
	// Neither rejected key was remembered: the store is exactly as new.
	if _, ok := s.batches.get("k-1"); ok {
		t.Fatal("rejected batch's key remembered")
	}
	if _, ok := s.batches.get("k-2"); ok {
		t.Fatal("rejected POST's key remembered")
	}
}
