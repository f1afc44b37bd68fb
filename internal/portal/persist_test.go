package portal

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// diskRecords builds a deterministic workload used by the durability tests.
func diskRecords(n int) []Record {
	t0 := time.Date(2023, 8, 16, 9, 0, 0, 0, time.UTC)
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			Experiment: fmt.Sprintf("exp-%d", i%3),
			Run:        i,
			Time:       t0.Add(time.Duration(i) * time.Minute),
			Fields:     map[string]any{"samples": 5, "best_score": float64(100 - i)},
			Files:      map[string][]byte{"plate.png": []byte(fmt.Sprintf("png-%d", i))},
		}
	}
	return recs
}

// lastSegment returns the path of the newest segment file under dir.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, segmentDirName, "seg-*.jsonl"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no segments in %s: %v", dir, err)
	}
	return names[len(names)-1]
}

// assertMatchesFresh asserts the reopened store serves exactly the same
// records, ordering, and summaries as a fresh in-memory store re-ingesting
// the same data — i.e. replay rebuilt indexes and summary cache faithfully.
func assertMatchesFresh(t *testing.T, reopened *Store, want []Record) {
	t.Helper()
	fresh := NewStore()
	for _, r := range want {
		if _, err := ingestOne(fresh, r); err != nil {
			t.Fatal(err)
		}
	}
	if reopened.Len() != fresh.Len() {
		t.Fatalf("reopened Len = %d, fresh = %d", reopened.Len(), fresh.Len())
	}
	got := reopened.Search(Query{})
	ref := fresh.Search(Query{})
	for i := range ref {
		if got[i].ID != ref[i].ID || got[i].Run != ref[i].Run || !got[i].Time.Equal(ref[i].Time) {
			t.Fatalf("record %d: reopened %+v vs fresh %+v", i, got[i], ref[i])
		}
		gs, fs := got[i].FileSizes(), ref[i].FileSizes()
		if len(gs) != len(fs) || gs["plate.png"] != fs["plate.png"] {
			t.Fatalf("record %d sizes: %v vs %v", i, gs, fs)
		}
	}
	exps := reopened.Experiments()
	if len(exps) != len(fresh.Experiments()) {
		t.Fatalf("experiments: %v vs %v", exps, fresh.Experiments())
	}
	for _, exp := range exps {
		a, err1 := reopened.Summarize(exp)
		b, err2 := fresh.Summarize(exp)
		if err1 != nil || err2 != nil || a != b {
			t.Fatalf("summary %s: %+v (%v) vs %+v (%v)", exp, a, err1, b, err2)
		}
	}
}

func TestOpenStoreRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := diskRecords(7)
	var ids []string
	for _, r := range recs {
		id, err := ingestOne(s, r)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Attachments are load-on-demand even before the restart.
	got, err := s.Get(ids[3])
	if err != nil || string(got.Files["plate.png"]) != "png-3" {
		t.Fatalf("pre-restart Get = %+v, %v", got, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ingestOne(s, recs[0]); err == nil {
		t.Fatal("closed store accepted a record")
	}

	reopened, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	assertMatchesFresh(t, reopened, recs)
	got, err = reopened.Get(ids[5])
	if err != nil || string(got.Files["plate.png"]) != "png-5" {
		t.Fatalf("post-restart Get = %+v, %v", got, err)
	}
	// The reopened store keeps accepting: IDs must not collide with the
	// replayed sequence.
	id, err := ingestOne(reopened, Record{Experiment: "exp-0", Run: 99, Time: time.Now()})
	if err != nil {
		t.Fatal(err)
	}
	for _, old := range ids {
		if id == old {
			t.Fatalf("post-restart id %s collides", id)
		}
	}
}

// TestCrashRecoveryTornTail simulates dying mid-append: the segment ends in
// half a record. Replay must drop exactly that record, keep everything
// before it, and leave the log clean for further appends.
func TestCrashRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := diskRecords(6)
	for _, r := range recs {
		if _, err := ingestOne(s, r); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Tear the tail: cut the final record's line in half.
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	trimmed := strings.TrimRight(string(data), "\n")
	lastNL := strings.LastIndexByte(trimmed, '\n')
	torn := data[:lastNL+1+(len(trimmed)-lastNL)/2]
	if err := os.WriteFile(seg, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	reopened, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("replay with torn tail: %v", err)
	}
	// Only the torn final record is gone; the rest matches a fresh scan.
	assertMatchesFresh(t, reopened, recs[:5])
	// The torn bytes were truncated away: appending and reopening again
	// must not resurrect garbage.
	if _, err := ingestOne(reopened, Record{Experiment: "exp-0", Run: 50, Time: time.Now().UTC()}); err != nil {
		t.Fatal(err)
	}
	reopened.Close()
	again, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("second replay: %v", err)
	}
	defer again.Close()
	if again.Len() != 6 {
		t.Fatalf("after repair Len = %d, want 6", again.Len())
	}
}

// TestCrashRecoveryMissingFinalNewline covers the boundary tear: the final
// record's JSON landed in full but its '\n' did not. Replay keeps the
// record, and OpenStore repairs the boundary so the next append starts a
// fresh line instead of concatenating onto (and later destroying) an
// acknowledged record.
func TestCrashRecoveryMissingFinalNewline(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := diskRecords(3)
	for _, r := range recs {
		if _, err := ingestOne(s, r); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	seg := lastSegment(t, dir)
	data, _ := os.ReadFile(seg)
	if err := os.WriteFile(seg, data[:len(data)-1], 0o644); err != nil { // strip only the '\n'
		t.Fatal(err)
	}

	reopened, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// All 3 records survive — the tear lost no data.
	assertMatchesFresh(t, reopened, recs)
	// Appending after the repair must not merge lines.
	if _, err := ingestOne(reopened, Record{Experiment: "exp-0", Run: 77, Time: time.Now().UTC()}); err != nil {
		t.Fatal(err)
	}
	reopened.Close()
	again, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("replay after boundary repair: %v", err)
	}
	defer again.Close()
	if again.Len() != 4 {
		t.Fatalf("after repair Len = %d, want 4", again.Len())
	}
}

// TestCrashRecoveryMidBatch tears a multi-record batch: the durable prefix
// of the batch survives, only the torn last line drops.
func TestCrashRecoveryMidBatch(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := diskRecords(5)
	if _, err := s.IngestBatchKeyed("", recs); err != nil {
		t.Fatal(err)
	}
	s.Close()
	seg := lastSegment(t, dir)
	data, _ := os.ReadFile(seg)
	// Cut 7 bytes into the final line's JSON (strip trailing newline, then
	// a bit of the record itself).
	if err := os.WriteFile(seg, data[:len(data)-8], 0o644); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	assertMatchesFresh(t, reopened, recs[:4])
}

// TestReplayRejectsMidLogCorruption: a corrupt record that is NOT the tail
// is real damage, not a torn append, and must fail loudly instead of being
// skipped.
func TestReplayRejectsMidLogCorruption(t *testing.T) {
	dir := t.TempDir()
	s, _ := OpenStore(dir)
	for _, r := range diskRecords(4) {
		ingestOne(s, r)
	}
	s.Close()
	seg := lastSegment(t, dir)
	data, _ := os.ReadFile(seg)
	lines := strings.SplitAfter(string(data), "\n")
	lines[1] = "{\"broken\": \n"
	if err := os.WriteFile(seg, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(dir); err == nil {
		t.Fatal("mid-log corruption replayed silently")
	}
}

// TestReplayRejectsNonPositionalID: a record's ID is its position in the
// archive, so a segment line carrying any other ID — a duplicate, a skipped
// number or a name the store never assigns — is corruption, and
// OpenStoreWith refuses the archive with an error naming the file.
func TestReplayRejectsNonPositionalID(t *testing.T) {
	for _, id := range []string{"rec-000001", "rec-000007", "mine"} {
		t.Run(id, func(t *testing.T) {
			dir := t.TempDir()
			s, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.IngestBatchKeyed("", diskRecords(3)); err != nil {
				t.Fatal(err)
			}
			s.Close()
			seg := lastSegment(t, dir)
			data, _ := os.ReadFile(seg)
			edited := strings.Replace(string(data), `"id":"rec-000002"`, `"id":"`+id+`"`, 1)
			if edited == string(data) {
				t.Fatal("segment holds no rec-000002 line")
			}
			if err := os.WriteFile(seg, []byte(edited), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = OpenStoreWith(dir, Options{})
			if err == nil || !strings.Contains(err.Error(), filepath.Base(seg)) {
				t.Fatalf("OpenStoreWith = %v, want an error naming %s", err, filepath.Base(seg))
			}
		})
	}
}

// TestSegmentRotation shrinks the rotation threshold so a small workload
// spans several segment files, and checks replay stitches them back.
func TestSegmentRotation(t *testing.T) {
	old := segmentRotateBytes
	segmentRotateBytes = 256
	defer func() { segmentRotateBytes = old }()

	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := diskRecords(12)
	for _, r := range recs {
		if _, err := ingestOne(s, r); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, segmentDirName, "seg-*.jsonl"))
	if len(segs) < 2 {
		t.Fatalf("expected rotation, got %d segment(s)", len(segs))
	}
	reopened, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	assertMatchesFresh(t, reopened, recs)
}

// TestDiskStoreConcurrentIngestAndSearch runs the -race workout against the
// disk-backed store: writers appending to the log while readers page and
// summarize.
func TestDiskStoreConcurrentIngestAndSearch(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2023, 8, 16, 9, 0, 0, 0, time.UTC)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				rec := Record{
					Experiment: "disk",
					Run:        w,
					Time:       t0.Add(time.Duration(w*50+j) * time.Second),
					Files:      map[string][]byte{"plate.png": {byte(j)}},
				}
				if _, err := ingestOne(s, rec); err != nil {
					t.Error(err)
					return
				}
				s.Search(Query{Experiment: "disk", Limit: 8})
				s.Summarize("disk")
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 200 {
		t.Fatalf("Len = %d", s.Len())
	}
	s.Close()
	reopened, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.Len() != 200 {
		t.Fatalf("replayed Len = %d", reopened.Len())
	}
	sum, err := reopened.Summarize("disk")
	if err != nil || sum.Records != 200 || sum.Images != 200 || sum.Runs != 4 {
		t.Fatalf("summary = %+v, %v", sum, err)
	}
}

// TestFailedAppendLeavesLogCommitted exercises the all-or-nothing guarantee
// under a mid-batch encode failure: a NaN field value makes json.Marshal
// fail partway through a batch. The rejected batch must leave no phantom
// bytes in the log — the next ingest reuses the failed batch's slots, so a
// leaked line would shift every later record on replay and brick the data
// dir with an ID that is not its position.
func TestFailedAppendLeavesLogCommitted(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	good := diskRecords(2)
	if _, err := ingestOne(s, good[0]); err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2023, 8, 16, 9, 0, 0, 0, time.UTC)
	bad := []Record{
		{Experiment: "fine", Run: 1, Time: t0, Fields: map[string]any{"samples": 1}},
		{Experiment: "poisoned", Run: 2, Time: t0, Fields: map[string]any{"score": math.NaN()}},
	}
	if _, err := s.IngestBatchKeyed("", bad); err == nil {
		t.Fatal("batch with unmarshalable field accepted")
	} else if !errors.Is(err, ErrInvalid) {
		t.Fatalf("unencodable record classified as store fault: %v", err)
	}
	if s.Len() != 1 {
		t.Fatalf("rejected batch changed Len to %d", s.Len())
	}
	// This ingest is assigned the same rec ID the failed batch's first
	// record would have gotten; both on the same line boundary if a phantom
	// line had been staged.
	if _, err := ingestOne(s, good[1]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("reopen after rejected batch: %v", err)
	}
	defer reopened.Close()
	assertMatchesFresh(t, reopened, good)
}

// TestFailedRollbackPoisonsLog: when an append fails and the segment cannot
// be rolled back to its committed length (here the file handle is dead),
// the store must refuse all further ingests rather than risk writing an
// unreplayable log — and the data dir must still reopen with exactly the
// committed records.
func TestFailedRollbackPoisonsLog(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := diskRecords(3)
	if _, err := ingestOne(s, recs[0]); err != nil {
		t.Fatal(err)
	}
	// Sabotage the segment file: the next flush fails, and so does the
	// rollback truncate.
	s.log.f.Close()
	if _, err := s.IngestBatchKeyed("", recs[1:2]); err == nil {
		t.Fatal("append through a dead segment file succeeded")
	}
	if _, err := ingestOne(s, recs[2]); err == nil || !strings.Contains(err.Error(), "earlier failure") {
		t.Fatalf("poisoned log accepted a record: %v", err)
	}
	// Retire the wedged store (Close errors on the dead file but still
	// releases the data-dir lock) and "restart".
	s.Close()
	reopened, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	assertMatchesFresh(t, reopened, recs[:1])
}

// TestGetAfterCloseErrors: reading a blob-backed record off a closed disk
// store must fail loudly, not silently return the record with its
// attachments stripped.
func TestGetAfterCloseErrors(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	id, err := ingestOne(s, diskRecords(1)[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(id); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("Get on closed store = %v, want closed-store error", err)
	}
}

// TestReplayRejectsCorruptTerminatedTail: a final line that ends in '\n'
// was fully committed (appends write line+'\n' as one prefix-failing
// write), so if it no longer parses that is in-place corruption of an
// acknowledged record — report it, never silently truncate it away.
func TestReplayRejectsCorruptTerminatedTail(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range diskRecords(3) {
		if _, err := ingestOne(s, r); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Damage the last line's JSON in place, keeping its trailing newline.
	lastNL := strings.LastIndexByte(strings.TrimRight(string(data), "\n"), '\n')
	copy(data[lastNL+2:], "!!!!")
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(dir); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("corrupted committed tail opened as %v, want corruption error", err)
	}
}

// TestOpenStoreRejectsSecondWriter: two live stores on one data dir would
// interleave appends with independent sequence counters and brick the
// archive with duplicate IDs — the second open must fail fast instead. Two
// durable hubs on one events dir would do the same to event seqs.
func TestOpenStoreRejectsSecondWriter(t *testing.T) {
	for name, open := range map[string]func(dir string) (io.Closer, error){
		"store": func(dir string) (io.Closer, error) { return OpenStore(dir) },
		"hub":   func(dir string) (io.Closer, error) { return OpenHub(HubOptions{Dir: dir}) },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := open(dir); err == nil || !strings.Contains(err.Error(), "locked") {
				t.Fatalf("second writer on live data dir = %v, want lock error", err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			reopened, err := open(dir)
			if err != nil {
				t.Fatalf("reopen after Close: %v", err)
			}
			reopened.Close()
		})
	}
}

// TestReadsNeverTakeWriteLock pins the read path's isolation from writers:
// with the writer mutex held, as a long batch append or a compaction swap
// holds it, Search, SearchPage, Summarize and Get (attachment body
// included) still complete on a disk store, in process and over Serve.
func TestReadsNeverTakeWriteLock(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	recs := diskRecords(30)
	ids, err := s.IngestBatchKeyed("", recs)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Serve(s))
	defer srv.Close()
	c := NewClient(srv.URL)

	checkGet := func(r Record, err error) error {
		if err != nil {
			return err
		}
		if got, want := string(r.Files["plate.png"]), string(recs[7].Files["plate.png"]); got != want {
			return fmt.Errorf("get %s: plate.png %q, want %q", ids[7], got, want)
		}
		return nil
	}
	checkPage := func(p Page, err error) error {
		if err != nil {
			return err
		}
		if len(p.Records) != 4 || p.Next == "" {
			return fmt.Errorf("page of %d records, next %q; want 4 and a cursor", len(p.Records), p.Next)
		}
		return nil
	}
	checkSummary := func(sum Summary, err error) error {
		if err != nil {
			return err
		}
		if sum.Records != 10 || sum.Images != 10 {
			return fmt.Errorf("summary %+v, want 10 records and 10 images", sum)
		}
		return nil
	}
	reads := []struct {
		name string
		run  func() error
	}{
		{"Search", func() error {
			if got := s.Search(Query{Experiment: "exp-1"}); len(got) != 10 {
				return fmt.Errorf("%d records, want 10", len(got))
			}
			return nil
		}},
		{"SearchPage", func() error { return checkPage(s.SearchPage(Query{Experiment: "exp-1", Limit: 4})) }},
		{"Summarize", func() error { return checkSummary(s.Summarize("exp-1")) }},
		{"Get", func() error { return checkGet(s.Get(ids[7])) }},
		{"HTTP search", func() error { return checkPage(c.SearchPage(Query{Experiment: "exp-1", Limit: 4})) }},
		{"HTTP summary", func() error { return checkSummary(c.Summary("exp-1")) }},
		{"HTTP get", func() error { return checkGet(c.Get(ids[7])) }},
	}

	s.wmu.Lock()
	defer s.wmu.Unlock() // before s.Close, which takes it
	for _, r := range reads {
		done := make(chan error, 1)
		go func() { done <- r.run() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s with the writer mutex held: %v", r.name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s blocked behind the writer mutex", r.name)
		}
	}
}
