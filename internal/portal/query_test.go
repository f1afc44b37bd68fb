package portal

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestSearchLimitAppliesAfterTimeOrdering is the regression test for the
// pre-index bug: Search walked records in ingest order and truncated at
// Limit before any time ordering, so out-of-order ingest (concurrent
// campaigns on different virtual clocks) returned the first-ingested
// records instead of the earliest ones.
func TestSearchLimitAppliesAfterTimeOrdering(t *testing.T) {
	s := NewStore()
	t0 := time.Date(2023, 8, 16, 9, 0, 0, 0, time.UTC)
	// Ingest newest-first: ingest order is the reverse of time order.
	for i := 9; i >= 0; i-- {
		ingestOne(s, rec("e", i, t0.Add(time.Duration(i)*time.Minute), nil))
	}
	got := s.Search(Query{Experiment: "e", Limit: 3})
	if len(got) != 3 {
		t.Fatalf("limit: %d records", len(got))
	}
	for i, r := range got {
		if r.Run != i {
			t.Fatalf("record %d is run %d; want the %d earliest runs, got %+v", i, r.Run, 3, got)
		}
	}
	// The linear-scan reference path must agree with the indexed path.
	scan := s.searchScan(Query{Experiment: "e", Limit: 3})
	if len(scan) != 3 || scan[0].Run != 0 || scan[2].Run != 2 {
		t.Fatalf("scan reference disagrees: %+v", scan)
	}
}

func TestSearchPagePagination(t *testing.T) {
	s := NewStore()
	t0 := time.Date(2023, 8, 16, 9, 0, 0, 0, time.UTC)
	for i := 0; i < 10; i++ {
		ingestOne(s, rec("page", i, t0.Add(time.Duration(i)*time.Minute), nil))
	}
	var runs []int
	cursor := ""
	pages := 0
	for {
		page, err := s.SearchPage(Query{Experiment: "page", Limit: 3, Cursor: cursor})
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
		cursor = page.Next
	}
	if pages != 4 || len(runs) != 10 {
		t.Fatalf("pages=%d records=%d", pages, len(runs))
	}
	for i, run := range runs {
		if run != i {
			t.Fatalf("pagination out of order: %v", runs)
		}
	}
}

// TestSearchPageExactBoundary checks Limit dividing the result set exactly:
// the final full page must report an empty Next instead of promising a
// phantom fifth page.
func TestSearchPageExactBoundary(t *testing.T) {
	s := NewStore()
	t0 := time.Date(2023, 8, 16, 9, 0, 0, 0, time.UTC)
	for i := 0; i < 9; i++ {
		ingestOne(s, rec("exact", i, t0.Add(time.Duration(i)*time.Minute), nil))
	}
	cursor, total := "", 0
	for pages := 0; ; pages++ {
		if pages > 3 {
			t.Fatal("pagination did not terminate")
		}
		page, err := s.SearchPage(Query{Experiment: "exact", Limit: 3, Cursor: cursor})
		if err != nil {
			t.Fatal(err)
		}
		total += len(page.Records)
		if page.Next == "" {
			break
		}
		cursor = page.Next
	}
	if total != 9 {
		t.Fatalf("total = %d", total)
	}
}

func TestSearchPageEmptyStore(t *testing.T) {
	s := NewStore()
	page, err := s.SearchPage(Query{Limit: 5})
	if err != nil || len(page.Records) != 0 || page.Next != "" {
		t.Fatalf("empty store page = %+v, %v", page, err)
	}
	if got := s.Search(Query{Experiment: "none"}); len(got) != 0 {
		t.Fatalf("empty store search = %v", got)
	}
}

func TestSearchPageBadCursor(t *testing.T) {
	s := NewStore()
	ingestOne(s, rec("e", 1, time.Now(), nil))
	if _, err := s.SearchPage(Query{Cursor: "!!!not-base64!!!"}); err == nil {
		t.Fatal("bad cursor accepted")
	}
	if _, err := s.SearchPage(Query{Cursor: "aGVsbG8"}); err == nil { // "hello"
		t.Fatal("malformed cursor payload accepted")
	}
	if got := s.Search(Query{Cursor: "!!!"}); got != nil {
		t.Fatalf("Search with bad cursor = %v, want nil", got)
	}
}

// TestSearchPageRunFilter paginates under a Run filter, where a page can
// come back empty with the listing still exhausted correctly.
func TestSearchPageRunFilter(t *testing.T) {
	s := NewStore()
	t0 := time.Date(2023, 8, 16, 9, 0, 0, 0, time.UTC)
	for i := 0; i < 20; i++ {
		ingestOne(s, rec("rf", i%2, t0.Add(time.Duration(i)*time.Minute), nil))
	}
	cursor, total := "", 0
	for hops := 0; ; hops++ {
		if hops > 25 {
			t.Fatal("pagination did not terminate")
		}
		page, err := s.SearchPage(Query{Experiment: "rf", Run: 1, HasRun: true, Limit: 3, Cursor: cursor})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range page.Records {
			if r.Run != 1 {
				t.Fatalf("run filter leaked run %d", r.Run)
			}
		}
		total += len(page.Records)
		if page.Next == "" {
			break
		}
		cursor = page.Next
	}
	if total != 10 {
		t.Fatalf("run-filtered total = %d", total)
	}
}

func TestSearchPageTimeWindowWithCursor(t *testing.T) {
	s := NewStore()
	t0 := time.Date(2023, 8, 16, 9, 0, 0, 0, time.UTC)
	for i := 0; i < 12; i++ {
		ingestOne(s, rec("tw", i, t0.Add(time.Duration(i)*time.Minute), nil))
	}
	q := Query{Experiment: "tw", After: t0.Add(3 * time.Minute), Before: t0.Add(9 * time.Minute), Limit: 2}
	var runs []int
	for {
		page, err := s.SearchPage(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range page.Records {
			runs = append(runs, r.Run)
		}
		if page.Next == "" {
			break
		}
		q.Cursor = page.Next
	}
	want := []int{3, 4, 5, 6, 7, 8}
	if len(runs) != len(want) {
		t.Fatalf("window runs = %v, want %v", runs, want)
	}
	for i := range want {
		if runs[i] != want[i] {
			t.Fatalf("window runs = %v, want %v", runs, want)
		}
	}
}

// TestIndexedSearchMatchesScan cross-checks the indexed path against the
// linear reference on a shuffled workload across every filter combination —
// for the in-memory store, a live disk store, and a disk store that was
// compacted and reopened through the parallel replay path, which must all
// serve identical results.
func TestIndexedSearchMatchesScan(t *testing.T) {
	t0 := time.Date(2023, 8, 16, 9, 0, 0, 0, time.UTC)
	// Two experiments, deliberately interleaved and time-scrambled.
	fill := func(t *testing.T, s *Store) {
		for i := 0; i < 40; i++ {
			exp := "x"
			if i%3 == 0 {
				exp = "y"
			}
			offset := time.Duration((i*7)%40) * time.Minute
			if _, err := ingestOne(s, rec(exp, i%4, t0.Add(offset), nil)); err != nil {
				t.Fatal(err)
			}
		}
	}
	variants := []struct {
		name string
		open func(t *testing.T) *Store
	}{
		{"memory", func(t *testing.T) *Store {
			s := NewStore()
			fill(t, s)
			return s
		}},
		{"disk", func(t *testing.T) *Store {
			s, err := OpenStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			fill(t, s)
			return s
		}},
		{"compacted-parallel-replay", func(t *testing.T) *Store {
			smallSegments(t, 512)
			dir := t.TempDir()
			s, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			fill(t, s)
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
			s.Close()
			withReplayPool(t, 4)
			reopened, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { reopened.Close() })
			return reopened
		}},
	}
	queries := []Query{
		{},
		{Experiment: "x"},
		{Experiment: "y", Run: 0, HasRun: true},
		{After: t0.Add(10 * time.Minute)},
		{Before: t0.Add(20 * time.Minute)},
		{Experiment: "x", After: t0.Add(5 * time.Minute), Before: t0.Add(30 * time.Minute)},
		{Experiment: "x", Limit: 7},
		{Limit: 11},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			s := v.open(t)
			for qi, q := range queries {
				indexed := s.Search(q)
				scan := s.searchScan(q)
				if len(indexed) != len(scan) {
					t.Fatalf("query %d: indexed %d records, scan %d", qi, len(indexed), len(scan))
				}
				for i := range indexed {
					if indexed[i].ID != scan[i].ID {
						t.Fatalf("query %d: order diverges at %d: %s vs %s", qi, i, indexed[i].ID, scan[i].ID)
					}
				}
			}
		})
	}
}

// TestRandomizedWorkloadMatchesScan is the property test for the whole
// lifecycle: a seeded random mix of single ingests, batches, compactions,
// and reopens (alternating sequential and parallel replay), cross-checked
// after every step against the linear-scan reference and, at the end,
// against an in-memory mirror store that replayed the same ingests — so
// index maintenance, compaction, and replay must all preserve exactly the
// same observable store.
func TestRandomizedWorkloadMatchesScan(t *testing.T) {
	t0 := time.Date(2023, 8, 16, 9, 0, 0, 0, time.UTC)
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			smallSegments(t, 512)
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			s, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			mirror := NewStore()
			exps := []string{"a", "b", "c"}
			nextRun := 0
			makeRec := func() Record {
				nextRun++
				return rec(exps[rng.Intn(len(exps))], nextRun,
					// Random, colliding timestamps exercise the (time, slot)
					// tiebreak through every merge and sort path.
					t0.Add(time.Duration(rng.Intn(50))*time.Minute), nil)
			}
			check := func(step int) {
				t.Helper()
				queries := []Query{
					{},
					{Experiment: exps[rng.Intn(len(exps))]},
					{After: t0.Add(time.Duration(rng.Intn(50)) * time.Minute)},
					{Before: t0.Add(time.Duration(rng.Intn(50)) * time.Minute), Limit: 1 + rng.Intn(10)},
				}
				for qi, q := range queries {
					indexed := s.Search(q)
					scan := s.searchScan(q)
					if len(indexed) != len(scan) {
						t.Fatalf("step %d query %d: indexed %d, scan %d", step, qi, len(indexed), len(scan))
					}
					for i := range indexed {
						if indexed[i].ID != scan[i].ID {
							t.Fatalf("step %d query %d: diverges at %d", step, qi, i)
						}
					}
				}
			}
			for step := 0; step < 60; step++ {
				switch op := rng.Intn(10); {
				case op < 4: // single ingest
					r := makeRec()
					if _, err := ingestOne(s, r); err != nil {
						t.Fatal(err)
					}
					if _, err := ingestOne(mirror, r); err != nil {
						t.Fatal(err)
					}
				case op < 7: // batch ingest
					recs := make([]Record, 1+rng.Intn(5))
					for i := range recs {
						recs[i] = makeRec()
					}
					if _, err := s.IngestBatchKeyed("", recs); err != nil {
						t.Fatal(err)
					}
					if _, err := mirror.IngestBatchKeyed("", recs); err != nil {
						t.Fatal(err)
					}
				case op < 9: // compact
					if err := s.Compact(); err != nil {
						t.Fatal(err)
					}
				default: // reopen, alternating replay mode
					if err := s.Close(); err != nil {
						t.Fatal(err)
					}
					workers := 1 + step%4
					withReplayPool(t, workers)
					if s, err = OpenStore(dir); err != nil {
						t.Fatalf("step %d reopen (workers=%d): %v", step, workers, err)
					}
				}
				check(step)
			}
			// Final cross-store equivalence: the disk store (through all its
			// compactions and reopens) matches the mirror that only ever saw
			// plain ingests.
			got, want := s.Search(Query{}), mirror.Search(Query{})
			if len(got) != len(want) {
				t.Fatalf("final: disk %d records, mirror %d", len(got), len(want))
			}
			for i := range want {
				if got[i].ID != want[i].ID || !got[i].Time.Equal(want[i].Time) || got[i].Run != want[i].Run {
					t.Fatalf("final record %d: disk %+v vs mirror %+v", i, got[i], want[i])
				}
			}
			s.Close()
		})
	}
}

// TestConcurrentIngestAndPaginatedSearch hammers the store with writers
// while a reader walks cursor pages, under -race. The cursor contract is
// that already-returned positions never repeat, even as new records land.
func TestConcurrentIngestAndPaginatedSearch(t *testing.T) {
	s := NewStore()
	t0 := time.Date(2023, 8, 16, 9, 0, 0, 0, time.UTC)
	var writers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for j := 0; j < 200; j++ {
				ingestOne(s, rec("cc", w, t0.Add(time.Duration(w*200+j)*time.Second), nil))
			}
		}(w)
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			seen := map[string]bool{}
			cursor := ""
			for {
				page, err := s.SearchPage(Query{Experiment: "cc", Limit: 16, Cursor: cursor})
				if err != nil {
					t.Error(err)
					return
				}
				for _, r := range page.Records {
					if seen[r.ID] {
						t.Errorf("cursor walk repeated record %s", r.ID)
						return
					}
					seen[r.ID] = true
				}
				if page.Next == "" {
					break
				}
				cursor = page.Next
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	writers.Wait()
	close(stop)
	<-readerDone
	if s.Len() != 800 {
		t.Fatalf("Len = %d", s.Len())
	}
}
