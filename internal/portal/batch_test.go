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

	// Duplicate IDs inside one batch are rejected too.
	dup := diskRecords(2)
	dup[0].ID, dup[1].ID = "same", "same"
	if _, err := s.IngestBatchKeyed("", dup); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("intra-batch duplicate accepted: %v", err)
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
	if f, q := buf.box.push(); s.Len() != 3 || f+q != 0 {
		t.Fatalf("after retry: store=%d buffer=%d", s.Len(), f+q)
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
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := diskRecords(3)
	ids, err := s.IngestBatchKeyed("campaign-7", recs)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	reopened, err := OpenStore(dir)
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
	again2, err := OpenStore(dir)
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
	s.batches.put(key(5), nil)
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
	if f, q := buf.box.push(); f+q != 5 {
		t.Fatalf("buffer Len = %d, want 5", f+q)
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
	if f, q := buf.box.push(); f+q != 5 {
		t.Fatalf("buffer Len = %d", f+q)
	}
	ids, err := buf.box.flush()
	if err != nil || len(ids) != 5 {
		t.Fatalf("flush: %v, %v", ids, err)
	}
	if f, q := buf.box.push(); s.Len() != 5 || f+q != 0 {
		t.Fatalf("after flush: store=%d buffer=%d", s.Len(), f+q)
	}
	// Empty re-flush is a no-op.
	if ids, err := buf.box.flush(); err != nil || ids != nil {
		t.Fatalf("re-flush: %v, %v", ids, err)
	}
}

func TestBufferRetainsRecordsOnFailedFlush(t *testing.T) {
	s := NewStore()
	buf := NewBuffer(s)
	buf.Add(Record{Experiment: "ok", Time: time.Now()})
	buf.Add(Record{ID: "dup", Experiment: "ok", Time: time.Now()})
	buf.Add(Record{ID: "dup", Experiment: "ok", Time: time.Now()})
	if _, err := buf.box.flush(); err == nil {
		t.Fatal("flush of duplicate ids succeeded")
	}
	// Nothing was lost: the records are still buffered for a retry.
	if f, q := buf.box.push(); f+q != 3 {
		t.Fatalf("buffer Len after failed flush = %d", f+q)
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
	if f, q := buf.box.push(); f+q != 0 {
		t.Fatalf("rejected Add queued %d records", f+q)
	}
	if ids, err := buf.Deliver(context.Background()); err != nil || ids != nil || s.Len() != 0 {
		t.Fatalf("Deliver = %v, %v; store has %d records, want none", ids, err, s.Len())
	}
}

// TestAutoIDSkipsClaimedSequenceNumbers: a caller-supplied ID shaped like
// the generator's output (any client can POST one) must not wedge auto-ID
// ingestion — a rejected collision would never commit the sequence, so
// every retry would regenerate the same colliding ID until restart.
func TestAutoIDSkipsClaimedSequenceNumbers(t *testing.T) {
	s := NewStore()
	now := time.Now()
	if _, err := ingestOne(s, Record{ID: "rec-000001", Experiment: "squat", Time: now}); err != nil {
		t.Fatal(err)
	}
	id, err := ingestOne(s, Record{Experiment: "auto", Time: now})
	if err != nil {
		t.Fatalf("auto-ID ingest wedged by claimed sequence ID: %v", err)
	}
	if id == "rec-000001" {
		t.Fatalf("assigned already-claimed id %s", id)
	}
	// The skip also holds within one batch: an explicit ID earlier in the
	// batch must not collide with a later auto-ID record.
	ids, err := s.IngestBatchKeyed("", []Record{
		{ID: "rec-000003", Experiment: "squat", Time: now},
		{Experiment: "auto", Time: now},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ids[1] == "rec-000003" {
		t.Fatalf("batch auto-ID collided: %v", ids)
	}
	// ...in either order: the explicit IDs are claimed before any auto ID
	// is assigned, so an auto record ahead of the explicit one in the same
	// batch must also skip it.
	ids, err = s.IngestBatchKeyed("", []Record{
		{Experiment: "auto", Time: now},
		{ID: "rec-000005", Experiment: "squat", Time: now},
	})
	if err != nil {
		t.Fatalf("auto-before-explicit batch rejected: %v", err)
	}
	if ids[0] == "rec-000005" {
		t.Fatalf("batch auto-ID collided with later explicit ID: %v", ids)
	}
	if s.Len() != 6 {
		t.Fatalf("Len = %d", s.Len())
	}
}
