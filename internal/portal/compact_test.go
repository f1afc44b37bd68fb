package portal

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// smallSegments shrinks the rotation threshold for the duration of a test
// so modest workloads span many segment files.
func smallSegments(t *testing.T, n int64) {
	t.Helper()
	old := segmentRotateBytes
	segmentRotateBytes = n
	t.Cleanup(func() { segmentRotateBytes = old })
}

// withReplayPool sizes the replay decode pool for the rest of the test;
// 1 replays sequentially.
func withReplayPool(t *testing.T, n int) {
	t.Helper()
	old := replayPool
	replayPool = n
	t.Cleanup(func() { replayPool = old })
}

// withCompactHook installs a compaction fault hook for the test.
func withCompactHook(t *testing.T, hook func(point string) error) {
	t.Helper()
	compactHook = hook
	t.Cleanup(func() { compactHook = nil })
}

// segmentFiles lists the segment-dir contents (base names, sorted by Glob).
func segmentFiles(t *testing.T, dir, pattern string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, segmentDirName, pattern))
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range names {
		names[i] = filepath.Base(n)
	}
	return names
}

// TestCompactBasic: several sealed segments collapse into one snapshot
// segment plus the active tail, the covered inputs are deleted, the live
// store keeps serving (snapshot reads are untouched), appends keep landing,
// and a reopen replays to exactly the same store.
func TestCompactBasic(t *testing.T) {
	smallSegments(t, 256)
	dir := t.TempDir()
	s, err := OpenStoreWith(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs := diskRecords(20)
	for _, r := range recs[:15] {
		if _, err := ingestOne(s, r); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(segmentFiles(t, dir, "seg-*.jsonl")); n < 3 {
		t.Fatalf("want several segments before compaction, got %d", n)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	snaps := segmentFiles(t, dir, "snap-*.snap")
	if len(snaps) != 1 {
		t.Fatalf("snapshots after compaction = %v, want exactly one", snaps)
	}
	if segs := segmentFiles(t, dir, "seg-*.jsonl"); len(segs) != 1 {
		t.Fatalf("segments after compaction = %v, want only the active one", segs)
	}
	// The live store is unaffected: same records, and ingest continues into
	// the active segment.
	if s.Len() != 15 {
		t.Fatalf("Len after compaction = %d", s.Len())
	}
	for _, r := range recs[15:] {
		if _, err := ingestOne(s, r); err != nil {
			t.Fatal(err)
		}
	}
	// A second compaction folds the new tail into a newer snapshot.
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenStoreWith(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	assertMatchesFresh(t, reopened, recs)
	// Attachments survived both compactions.
	got := reopened.Search(Query{Limit: 1})
	full, err := reopened.Get(got[0].ID)
	if err != nil || string(full.Files["plate.png"]) != "png-0" {
		t.Fatalf("Get after compaction = %+v, %v", full, err)
	}
}

// TestCompactNothingToDo: compacting with no sealed segments (everything
// already covered, or a fresh store) is a no-op, and the in-memory store
// errors rather than pretending.
func TestCompactNothingToDo(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStoreWith(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Compact(); err != nil {
		t.Fatalf("empty-store compaction: %v", err)
	}
	if n := len(segmentFiles(t, dir, "snap-*.snap")); n != 0 {
		t.Fatalf("no-op compaction wrote %d snapshot(s)", n)
	}
	if err := NewStore().Compact(); err == nil {
		t.Fatal("in-memory store compacted silently")
	}
}

// TestCompactionCrashEquivalence kills a compaction at every durability
// boundary — partial tmp write, tmp written, tmp fsynced, renamed, dir
// synced, after each input removal, after cleanup sync, after each blob GC
// — and asserts that closing and reopening the store yields the
// pre-compaction store record-for-record, with a subsequent compaction
// succeeding cleanly on the crashed-over state.
func TestCompactionCrashEquivalence(t *testing.T) {
	smallSegments(t, 256)
	recs := diskRecords(12)
	build := func(t *testing.T) (string, *Store) {
		dir := t.TempDir()
		s, err := OpenStoreWith(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range recs {
			// Two compaction generations: a snapshot mid-way, so the crash
			// points also cover rewriting an existing snapshot.
			if i == len(recs)/2 {
				if err := s.Compact(); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := ingestOne(s, r); err != nil {
				t.Fatal(err)
			}
		}
		return dir, s
	}

	// Pass 1: record every boundary a full compaction crosses.
	var points []string
	{
		dir, s := build(t)
		withCompactHook(t, func(p string) error {
			points = append(points, p)
			return nil
		})
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		compactHook = nil
		s.Close()
		reopened, err := OpenStoreWith(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesFresh(t, reopened, recs)
		reopened.Close()
	}
	if len(points) < 6 {
		t.Fatalf("compaction crossed only %d boundaries: %v", len(points), points)
	}

	errBoom := errors.New("injected crash")
	for _, kill := range points {
		t.Run(kill, func(t *testing.T) {
			dir, s := build(t)
			withCompactHook(t, func(p string) error {
				if p == kill {
					return errBoom
				}
				return nil
			})
			if err := s.Compact(); !errors.Is(err, errBoom) {
				t.Fatalf("compaction survived the %s crash: %v", kill, err)
			}
			compactHook = nil
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			reopened, err := OpenStoreWith(dir, Options{})
			if err != nil {
				t.Fatalf("reopen after crash at %s: %v", kill, err)
			}
			assertMatchesFresh(t, reopened, recs)
			// No stale leftovers: at most one snapshot, no .tmp files.
			if tmp := segmentFiles(t, dir, "*.tmp"); len(tmp) != 0 {
				t.Fatalf("crash at %s left tmp files on reopen: %v", kill, tmp)
			}
			if snaps := segmentFiles(t, dir, "snap-*.snap"); len(snaps) > 1 {
				t.Fatalf("crash at %s left %v", kill, snaps)
			}
			// The crashed-over state compacts cleanly.
			if err := reopened.Compact(); err != nil {
				t.Fatalf("recompaction after crash at %s: %v", kill, err)
			}
			assertMatchesFresh(t, reopened, recs)
			reopened.Close()
		})
	}
}

// TestCompactPreservesCursors: a pagination cursor handed out before a
// compaction (and restart) resumes correctly after it, because compaction
// preserves ingest order and therefore the slot half of the cursor key.
func TestCompactPreservesCursors(t *testing.T) {
	smallSegments(t, 256)
	dir := t.TempDir()
	s, err := OpenStoreWith(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs := diskRecords(15)
	for _, r := range recs {
		if _, err := ingestOne(s, r); err != nil {
			t.Fatal(err)
		}
	}
	q := Query{Limit: 4}
	first, err := s.SearchPage(q)
	if err != nil || first.Next == "" {
		t.Fatalf("first page: %+v, %v", first, err)
	}
	wantRest := s.Search(Query{})[len(first.Records):]

	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	reopened, err := OpenStoreWith(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()

	var got []Record
	cursor := first.Next
	for cursor != "" {
		page, err := reopened.SearchPage(Query{Limit: 4, Cursor: cursor})
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, page.Records...)
		cursor = page.Next
	}
	if len(got) != len(wantRest) {
		t.Fatalf("resumed listing has %d records, want %d", len(got), len(wantRest))
	}
	for i := range got {
		if got[i].ID != wantRest[i].ID {
			t.Fatalf("record %d after resume = %s, want %s", i, got[i].ID, wantRest[i].ID)
		}
	}
}

// TestCompactedReplayParallelMatchesSequential: the parallel decode path
// over a compacted archive yields exactly the sequential path's store.
func TestCompactedReplayParallelMatchesSequential(t *testing.T) {
	smallSegments(t, 256)
	// Tiny chunks force many parallel decode units even on this small
	// archive, covering chunk-boundary reassembly.
	oldChunk := replayChunkBytes
	replayChunkBytes = 200
	defer func() { replayChunkBytes = oldChunk }()

	dir := t.TempDir()
	s, err := OpenStoreWith(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs := diskRecords(30)
	for _, r := range recs[:20] {
		if _, err := ingestOne(s, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs[20:] { // tail segments after the snapshot
		if _, err := ingestOne(s, r); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	collect := func(workers int) ([]Record, int) {
		withReplayPool(t, workers)
		st, err := OpenStoreWith(dir, Options{})
		if err != nil {
			t.Fatalf("replay with %d workers: %v", workers, err)
		}
		defer st.Close()
		assertMatchesFresh(t, st, recs)
		return st.Search(Query{}), st.Len()
	}
	seqRecs, seqLen := collect(1)
	parRecs, parLen := collect(4)
	if seqLen != parLen || len(seqRecs) != len(parRecs) {
		t.Fatalf("sequential store has %d/%d, parallel %d/%d", seqLen, len(seqRecs), parLen, len(parRecs))
	}
	for i := range seqRecs {
		if seqRecs[i].ID != parRecs[i].ID {
			t.Fatalf("record %d: sequential %s vs parallel %s", i, seqRecs[i].ID, parRecs[i].ID)
		}
	}
}

// TestCompactDropsOrphanBlobs: a batch whose append is rejected after its
// blobs hit disk leaves orphaned blob files; compaction garbage-collects
// them while keeping every referenced blob loadable.
func TestCompactDropsOrphanBlobs(t *testing.T) {
	smallSegments(t, 256)
	dir := t.TempDir()
	s, err := OpenStoreWith(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs := diskRecords(6)
	var ids []string
	for _, r := range recs {
		id, err := ingestOne(s, r)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Orphan a blob: the blob file is written and synced before the batch's
	// segment lines, and the NaN field then rejects the whole batch.
	t0 := time.Date(2023, 8, 16, 12, 0, 0, 0, time.UTC)
	bad := []Record{
		{Experiment: "orphan", Time: t0, Files: map[string][]byte{"lost.png": []byte("orphaned bytes")}},
		{Experiment: "orphan", Time: t0, Fields: map[string]any{"score": math.NaN()}},
	}
	if _, err := s.IngestBatchKeyed("", bad); err == nil {
		t.Fatal("unencodable batch accepted")
	}
	before, err := filepath.Glob(filepath.Join(dir, blobDirName, "b-*.bin"))
	if err != nil || len(before) != len(recs)+1 {
		t.Fatalf("blob files before compaction = %d (%v), want %d", len(before), err, len(recs)+1)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after, err := filepath.Glob(filepath.Join(dir, blobDirName, "b-*.bin"))
	if err != nil || len(after) != len(recs) {
		t.Fatalf("blob files after compaction = %d (%v), want %d", len(after), err, len(recs))
	}
	for i, id := range ids {
		got, err := s.Get(id)
		if err != nil || string(got.Files["plate.png"]) != fmt.Sprintf("png-%d", i) {
			t.Fatalf("record %s lost its attachment after GC: %+v, %v", id, got, err)
		}
	}
	s.Close()
}

// TestAutoCompactTriggers: with AutoCompactSegments set, enough rotations
// start a background compaction without any explicit Compact call.
func TestAutoCompactTriggers(t *testing.T) {
	smallSegments(t, 256)
	dir := t.TempDir()
	s, err := OpenStoreWith(dir, Options{AutoCompactSegments: 2})
	if err != nil {
		t.Fatal(err)
	}
	recs := diskRecords(20)
	for _, r := range recs {
		if _, err := ingestOne(s, r); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if snaps := segmentFiles(t, dir, "snap-*.snap"); len(snaps) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no background compaction within 5s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := s.Close(); err != nil { // waits out any in-flight compaction
		t.Fatal(err)
	}
	reopened, err := OpenStoreWith(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	assertMatchesFresh(t, reopened, recs)
}

// TestCompactRejectsCorruptSealedSegment: compaction must refuse to rewrite
// around a corrupt sealed record — rewriting would silently launder the
// damage into a clean-looking snapshot.
func TestCompactRejectsCorruptSealedSegment(t *testing.T) {
	smallSegments(t, 256)
	dir := t.TempDir()
	s, err := OpenStoreWith(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range diskRecords(10) {
		if _, err := ingestOne(s, r); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt a record in the FIRST (sealed) segment in place.
	segs, _ := filepath.Glob(filepath.Join(dir, segmentDirName, "seg-*.jsonl"))
	if len(segs) < 2 {
		t.Fatalf("need a sealed segment, got %v", segs)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	copy(data[2:], "!!!!")
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("compaction over corrupt sealed segment = %v, want corruption error", err)
	}
	s.Close()
}
