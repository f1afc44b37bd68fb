package portal

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Record is one published dataset (one iteration/run of the application).
type Record struct {
	ID         string         `json:"id"`
	Experiment string         `json:"experiment"`
	Run        int            `json:"run"`
	Time       time.Time      `json:"time"`
	Fields     map[string]any `json:"fields,omitempty"`
	// Files holds named binary attachments (e.g. the raw plate image).
	// Search results report only their sizes; for disk-backed stores the
	// bytes live in blob files and are loaded by Store.Get on demand.
	Files map[string][]byte `json:"-"`
	// sizes carries attachment sizes when the bytes themselves are not
	// loaded (disk-backed search results); FileSizes prefers Files.
	sizes map[string]int
}

// FileSizes summarizes attachments for display. It works for records whose
// attachment bytes are not loaded (disk-backed search results) as well as
// for fully materialized records.
func (r Record) FileSizes() map[string]int {
	if len(r.Files) == 0 && r.sizes != nil {
		out := make(map[string]int, len(r.sizes))
		for name, n := range r.sizes {
			out[name] = n
		}
		return out
	}
	out := make(map[string]int, len(r.Files))
	for name, data := range r.Files {
		out[name] = len(data)
	}
	return out
}

// Ingestor accepts published records, always as one keyed batch: the
// in-process Store and the HTTP Client implement it, and a Buffer queues
// records in front of one.
// The whole batch is validated before any record is accepted, so a rejected
// batch leaves the destination unchanged. A batch resubmitted under the
// same non-empty idempotency key after a lost response is answered with the
// original commit's IDs instead of being ingested twice; an empty key
// disables that dedupe. Mint keys with NewBatchKey.
type Ingestor interface {
	IngestBatchKeyed(key string, recs []Record) (ids []string, err error)
}

// ErrNotFound reports a lookup of a nonexistent record.
var ErrNotFound = errors.New("portal: record not found")

// ErrInvalid reports a rejected record: the submission itself was bad
// (missing experiment name, or an ID of its own), as opposed to a
// store-side failure. The HTTP server maps it to 400 so clients can tell a
// hopeless resubmission from a retryable server fault.
var ErrInvalid = errors.New("portal: invalid record")

// entry is one stored record plus, for disk-backed stores, the blob
// references resolving its attachments.
type entry struct {
	rec   Record
	blobs map[string]blobRef
}

// snapshot is one immutable, fully indexed view of the store. Readers load
// the current snapshot pointer and serve entirely from it — no lock, no
// interaction with writers. Writers build the next snapshot (sharing every
// structure the batch does not touch) and publish it with one atomic
// pointer store, so a reader either sees a whole batch or none of it.
//
// Sharing rule: entries and the index slices may share backing arrays with
// older snapshots, but only elements past the older snapshot's length are
// ever written — a published snapshot never reads past its own length, and
// writers are serialized, so the shared prefix is immutable.
type snapshot struct {
	entries []entry
	byExp   map[string][]int // slots sorted by (Time, slot)
	byTime  []int            // all slots sorted by (Time, slot)
	// sums caches per-experiment summaries computed against this snapshot,
	// lazily filled by readers. Filling is idempotent (the snapshot is
	// immutable), so concurrent misses may compute twice but never disagree.
	sums sync.Map // experiment -> Summary
}

// less orders two slots by (record time, ingest order): the sort key of
// every index and of search results.
func (sn *snapshot) less(a, b int) bool {
	ta, tb := sn.entries[a].rec.Time, sn.entries[b].rec.Time
	if !ta.Equal(tb) {
		return ta.Before(tb)
	}
	return a < b
}

// with returns the snapshot extended by added entries (already assigned
// their slots len(entries)..len(entries)+len(added)-1).
func (sn *snapshot) with(added []entry) *snapshot {
	base := len(sn.entries)
	next := &snapshot{entries: append(sn.entries, added...)}
	slots := make([]int, len(added))
	for i := range slots {
		slots[i] = base + i
	}
	// Stable keeps equal-time records in ingest order, matching less().
	sort.SliceStable(slots, func(i, j int) bool { return next.less(slots[i], slots[j]) })
	next.byTime = mergeSlots(next, sn.byTime, slots)
	perExp := make(map[string][]int)
	for _, slot := range slots {
		exp := next.entries[slot].rec.Experiment
		perExp[exp] = append(perExp[exp], slot)
	}
	next.byExp = make(map[string][]int, len(sn.byExp)+len(perExp))
	for exp, idx := range sn.byExp {
		next.byExp[exp] = idx
	}
	for exp, ns := range perExp {
		next.byExp[exp] = mergeSlots(next, next.byExp[exp], ns)
	}
	// Summaries stay valid for every experiment the batch did not touch.
	sn.sums.Range(func(k, v any) bool {
		if _, touched := perExp[k.(string)]; !touched {
			next.sums.Store(k, v)
		}
		return true
	})
	return next
}

// mergeSlots returns idx with add (itself (time, slot)-sorted) merged in
// order. When every added slot sorts after idx's tail — the common
// in-time-order ingest — the result extends idx in place; see the sharing
// rule on snapshot. Otherwise a fresh merged slice is built.
func mergeSlots(sn *snapshot, idx, add []int) []int {
	if len(add) == 0 {
		return idx
	}
	if len(idx) == 0 || sn.less(idx[len(idx)-1], add[0]) {
		return append(idx, add...)
	}
	out := make([]int, 0, len(idx)+len(add))
	i, j := 0, 0
	for i < len(idx) && j < len(add) {
		if sn.less(idx[i], add[j]) {
			out = append(out, idx[i])
			i++
		} else {
			out = append(out, add[j])
			j++
		}
	}
	out = append(out, idx[i:]...)
	return append(out, add[j:]...)
}

// maxBatchKeys bounds the idempotency-key memory: older keys are evicted
// FIFO, after which a very stale retry would re-ingest. The cap is far
// beyond any plausible in-flight retry window.
const maxBatchKeys = 4096

// keyMemory maps recently committed idempotency keys to their commit's
// answer, forgetting the oldest past maxBatchKeys. The zero value is ready
// to use; callers serialize access.
type keyMemory[V any] struct {
	vals  map[string]V
	order []string // keys oldest first, each once
}

func (m *keyMemory[V]) get(key string) (V, bool) {
	v, ok := m.vals[key]
	return v, ok
}

// put remembers key's answer. Re-remembering a key replaces its answer and
// keeps its place in the eviction order.
func (m *keyMemory[V]) put(key string, v V) {
	if m.vals == nil {
		m.vals = make(map[string]V)
	}
	if _, ok := m.vals[key]; !ok {
		m.order = append(m.order, key)
	}
	m.vals[key] = v
	for len(m.order) > maxBatchKeys {
		delete(m.vals, m.order[0])
		m.order = m.order[1:]
	}
}

// Store is the searchable record store. The read path (SearchPage, Get,
// Summarize, Experiments, Len) serves from an immutable copy-on-write
// snapshot loaded through one atomic pointer, so reads never block behind
// an ingest — or each other — and never observe a half-published batch.
// Writers serialize on an internal mutex, append to the segment log (for
// stores built with OpenStore) and publish the next snapshot atomically.
type Store struct {
	wmu  sync.Mutex // serializes writers; the read path never takes it
	snap atomic.Pointer[snapshot]
	log  *segLog // nil for the in-memory store
	// dir is the data dir root of a disk-backed store ("" in memory); blob
	// reads use it without any lock, refusing once closed is set.
	dir    string
	closed atomic.Bool
	// blob is the last blob number issued; compacted is the highest
	// segment number the newest snapshot covers, so sealed segments above
	// it are compaction candidates. Both are guarded by wmu.
	blob      int
	compacted int
	// batches remembers recently used idempotency keys and the slots their
	// batches committed to, so a retried batch is answered, not re-run.
	batches keyMemory[slotSpan]
	// autoCompact, when positive, triggers background compaction once that
	// many sealed segments accumulate past the last snapshot.
	autoCompact   int
	cmu           sync.Mutex // serializes compactions (and Close against them)
	compactWG     sync.WaitGroup
	compactQueued atomic.Bool
}

// recordID returns the ID of the record in slot. A record's ID is its
// position: the store numbers records rec-000001, rec-000002, ... in ingest
// order, so no index from IDs to slots is needed.
func recordID(slot int) string {
	return fmt.Sprintf("rec-%06d", slot+1)
}

// recordSlot returns the slot an ID names, or false if id is not one the
// store could have assigned.
func recordSlot(id string) (int, bool) {
	rest, ok := strings.CutPrefix(id, "rec-")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 1 || recordID(n-1) != id {
		return 0, false
	}
	return n - 1, true
}

// slotSpan is the run of slots one batch committed to.
type slotSpan struct{ first, n int }

// ids returns the IDs of the span's records, in ingest order.
func (sp slotSpan) ids() []string {
	ids := make([]string, sp.n)
	for i := range ids {
		ids[i] = recordID(sp.first + i)
	}
	return ids
}

// NewStore returns an empty in-memory store.
func NewStore() *Store {
	s := &Store{}
	s.snap.Store(&snapshot{byExp: make(map[string][]int)})
	return s
}

// Close flushes and closes the store's segment log (in-memory stores have
// none to flush), waiting for any background compaction to finish. In both
// modes records ingested after Close are rejected; reads keep working.
func (s *Store) Close() error {
	s.compactWG.Wait()
	s.cmu.Lock()
	defer s.cmu.Unlock()
	s.wmu.Lock()
	defer s.wmu.Unlock()
	var err error
	if s.log != nil {
		err = s.log.close()
		s.log = nil
	}
	// Poison ingestion for both modes so the documented contract holds
	// uniformly; for disk stores in particular, records after Close must
	// not silently go memory-only. Reads keep working.
	s.closed.Store(true)
	return err
}

// IngestBatchKeyed implements Ingestor: validate every record, then accept
// them all under one lock acquisition (and one segment-log flush for
// disk-backed stores), assigning each its positional ID. A record that
// arrives with an ID is rejected with ErrInvalid: the store alone assigns
// IDs. On error no record is ingested and the caller's records are
// untouched, so a Buffer retrying a failed batch presents it again
// unchanged. A non-empty key already committed on this store is answered
// with the original batch's IDs and ingests nothing, so a publisher
// retrying after a lost response cannot double-ingest. Keys ride the
// segment log, so the guarantee survives a restart.
func (s *Store) IngestBatchKeyed(key string, recs []Record) ([]string, error) {
	if len(recs) == 0 {
		return nil, nil
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.closed.Load() {
		return nil, fmt.Errorf("portal: store is closed")
	}
	if key != "" {
		if span, ok := s.batches.get(key); ok {
			return span.ids(), nil
		}
	}
	// Validate before touching any state, so a bad record anywhere in the
	// batch rejects the whole batch cleanly.
	for i := range recs {
		if err := checkNew(i, recs[i]); err != nil {
			return nil, err
		}
	}
	old := s.snap.Load()
	span := slotSpan{first: len(old.entries), n: len(recs)}
	blobs := make([]map[string]blobRef, len(recs))
	if s.log != nil {
		// A poisoned log refuses the batch before any blob I/O: retrying
		// publishers must not pile orphan blob files (and fsyncs) onto a
		// store that can never accept them.
		if err := s.log.usable(); err != nil {
			return nil, err
		}
		// Durability: blobs first, then the segment lines referencing them.
		// A crash in between leaves at worst orphaned blob files and a torn
		// final line, both of which replay discards.
		wroteBlobs := false
		for i := range recs {
			refs, err := s.writeBlobs(recs[i].Files)
			if err != nil {
				return nil, err
			}
			blobs[i] = refs
			wroteBlobs = wroteBlobs || len(refs) > 0
		}
		// One directory sync per batch makes every new blob's name durable.
		if wroteBlobs {
			if err := syncDir(filepath.Join(s.dir, blobDirName)); err != nil {
				return nil, fmt.Errorf("portal: sync blob dir: %w", err)
			}
		}
		// The whole chain — blob bytes, blob names, segment line, segment
		// name — is on disk once append's fsync commits the batch.
		batch, err := encodeRecords(recs, span.first, blobs, key)
		if err != nil {
			return nil, err
		}
		if err := s.log.append(batch); err != nil {
			return nil, err
		}
	}
	added := make([]entry, len(recs))
	for i := range recs {
		rec := recs[i]
		rec.ID = recordID(span.first + i)
		if blobs[i] != nil {
			// The log owns the attachment bytes now; keep only the sizes.
			rec.sizes = make(map[string]int, len(blobs[i]))
			for name, ref := range blobs[i] {
				rec.sizes[name] = ref.Size
			}
			rec.Files = nil
		}
		added[i] = entry{rec: rec, blobs: blobs[i]}
	}
	// Publish the batch with one atomic snapshot swap; until then its IDs
	// name slots beyond every reader's snapshot, which Get answers with
	// ErrNotFound.
	s.snap.Store(old.with(added))
	if key != "" {
		s.batches.put(key, span)
	}
	s.maybeCompact()
	return span.ids(), nil
}

// checkNew rejects record i of a batch unless the store may accept it: it
// needs an experiment name and must not carry an ID of its own.
func checkNew(i int, rec Record) error {
	if rec.Experiment == "" {
		return fmt.Errorf("%w: record %d missing experiment name", ErrInvalid, i)
	}
	if rec.ID != "" {
		return fmt.Errorf("%w: record %d carries id %q; the store assigns ids", ErrInvalid, i, rec.ID)
	}
	return nil
}

// Get returns the record with the given ID, loading its attachments from
// blob storage for disk-backed stores.
func (s *Store) Get(id string) (Record, error) {
	sn := s.snap.Load()
	slot, ok := recordSlot(id)
	if !ok || slot >= len(sn.entries) {
		return Record{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	e := sn.entries[slot]
	if len(e.blobs) == 0 {
		return e.rec, nil
	}
	if s.closed.Load() {
		// Only a Closed disk store gets here (in-memory records never carry
		// blob refs): error out rather than silently return the record with
		// its attachments stripped.
		return Record{}, fmt.Errorf("portal: record %s: store is closed", id)
	}
	// Blob files are immutable once their segment line is visible, so the
	// load runs without any store lock.
	files, err := readBlobs(s.dir, e.blobs)
	if err != nil {
		return Record{}, fmt.Errorf("portal: record %s: %w", id, err)
	}
	rec := e.rec
	rec.Files = files
	return rec, nil
}

// Len returns the number of records stored.
func (s *Store) Len() int {
	return len(s.snap.Load().entries)
}

// Experiments lists distinct experiment names, sorted.
func (s *Store) Experiments() []string {
	sn := s.snap.Load()
	out := make([]string, 0, len(sn.byExp))
	for name := range sn.byExp {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Summary aggregates an experiment for the portal's summary view (the
// paper's Figure 3 left panel: "12 runs each with 15 samples, for a total
// of 180 experiments").
type Summary struct {
	Experiment string    `json:"experiment"`
	Runs       int       `json:"runs"`
	Records    int       `json:"records"`
	Samples    int       `json:"samples"`
	Images     int       `json:"images"`
	BestScore  float64   `json:"best_score"`
	First      time.Time `json:"first"`
	Last       time.Time `json:"last"`
}

// Summarize builds the summary view of one experiment. Summaries are
// cached on the snapshot they were computed from — a new ingest for the
// experiment publishes a snapshot without that cache line — so the hot
// index page costs one map lookup between ingests, and a summary never
// blocks (or is blocked by) an ingest.
func (s *Store) Summarize(experiment string) (Summary, error) {
	sn := s.snap.Load()
	if v, ok := sn.sums.Load(experiment); ok {
		return v.(Summary), nil
	}
	slots := sn.byExp[experiment]
	if len(slots) == 0 {
		return Summary{}, fmt.Errorf("%w: experiment %q", ErrNotFound, experiment)
	}
	sum := sn.summarize(experiment, slots)
	sn.sums.Store(experiment, sum)
	return sum, nil
}

// summarize computes one experiment's summary from its sorted index.
func (sn *snapshot) summarize(experiment string, slots []int) Summary {
	sum := Summary{
		Experiment: experiment,
		Records:    len(slots),
		BestScore:  -1,
		// slots is time-ordered, so the window is its endpoints.
		First: sn.entries[slots[0]].rec.Time,
		Last:  sn.entries[slots[len(slots)-1]].rec.Time,
	}
	runs := map[int]bool{}
	for _, slot := range slots {
		r := sn.entries[slot].rec
		runs[r.Run] = true
		if n, ok := numField(r.Fields, "samples"); ok {
			sum.Samples += int(n)
		}
		if b, ok := numField(r.Fields, "best_score"); ok {
			if sum.BestScore < 0 || b < sum.BestScore {
				sum.BestScore = b
			}
		}
		for name := range r.FileSizes() {
			if strings.HasSuffix(name, ".png") {
				sum.Images++
			}
		}
	}
	sum.Runs = len(runs)
	return sum
}

func numField(fields map[string]any, key string) (float64, bool) {
	v, ok := fields[key]
	if !ok {
		return 0, false
	}
	switch n := v.(type) {
	case float64:
		return n, true
	case int:
		return float64(n), true
	case int64:
		return float64(n), true
	case json.Number:
		f, err := n.Float64()
		return f, err == nil
	}
	return 0, false
}
