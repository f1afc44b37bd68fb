package portal

import (
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// benchRecords builds n records spread across 10 experiments, timestamps
// increasing.
func benchRecords(n int) []Record {
	t0 := time.Date(2023, 8, 16, 9, 0, 0, 0, time.UTC)
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			Experiment: fmt.Sprintf("exp-%d", i%10),
			Run:        i / 10,
			Time:       t0.Add(time.Duration(i) * time.Second),
			Fields:     map[string]any{"samples": 15, "best_score": float64(n - i)},
		}
	}
	return recs
}

// benchStore fills a store with benchRecords(n) — the read-load workload:
// hot experiment-scoped queries against a large archive.
func benchStore(n int) *Store {
	s := NewStore()
	if _, err := s.IngestBatchKeyed("", benchRecords(n)); err != nil {
		panic(err)
	}
	return s
}

// summarizeScan replicates the pre-cache Summarize (what the HTML index
// used to recompute per request): a full filtered scan plus aggregation.
func summarizeScan(s *Store, experiment string) Summary {
	recs := s.searchScan(Query{Experiment: experiment})
	sum := Summary{Experiment: experiment, Records: len(recs), BestScore: -1}
	runs := map[int]bool{}
	for _, r := range recs {
		runs[r.Run] = true
		if sum.First.IsZero() || r.Time.Before(sum.First) {
			sum.First = r.Time
		}
		if r.Time.After(sum.Last) {
			sum.Last = r.Time
		}
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

// BenchmarkPortalSearch is the read-path benchmark at 10k records: the
// indexed search and cached summary paths against the linear scans they
// replaced. TestPortalReadPathsBeatScan gates the ratios (indexed and
// cached each ≥5× the scan).
func BenchmarkPortalSearch(b *testing.B) {
	s := benchStore(10000)
	q := Query{Experiment: "exp-5", Limit: 50}
	b.Run("indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := s.Search(q); len(got) != 50 {
				b.Fatalf("got %d records", len(got))
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := s.searchScan(q); len(got) != 50 {
				b.Fatalf("got %d records", len(got))
			}
		}
	})
	b.Run("summary-cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.Summarize("exp-5"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("summary-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if sum := summarizeScan(s, "exp-5"); sum.Records != 1000 {
				b.Fatalf("summary = %+v", sum)
			}
		}
	})
}

// bestOf times rounds runs of n calls to op and returns the fastest run's
// time per call. Each round starts from a fresh GC, and taking the best
// round keeps a busy neighbour from deciding a ratio.
func bestOf(rounds, n int, op func()) time.Duration {
	best := time.Duration(math.MaxInt64)
	for r := 0; r < rounds; r++ {
		runtime.GC()
		start := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best / time.Duration(n)
}

// TestPortalReadPathsBeatScan gates BenchmarkPortalSearch's workload: at
// 10k records the indexed search and the cached summary must each be at
// least 5x faster than the linear scans they replaced.
func TestPortalReadPathsBeatScan(t *testing.T) {
	s := benchStore(10000)
	q := Query{Experiment: "exp-5", Limit: 50}
	indexed := bestOf(5, 200, func() { s.Search(q) })
	scan := bestOf(5, 20, func() { s.searchScan(q) })
	cached := bestOf(5, 200, func() { _, _ = s.Summarize("exp-5") })
	sumScan := bestOf(5, 5, func() { summarizeScan(s, "exp-5") })
	t.Logf("search: indexed %v, scan %v (%.1fx); summary: cached %v, scan %v (%.1fx)",
		indexed, scan, float64(scan)/float64(indexed), cached, sumScan, float64(sumScan)/float64(cached))
	if scan < 5*indexed {
		t.Errorf("indexed search %v is not 5x faster than the scan %v", indexed, scan)
	}
	if sumScan < 5*cached {
		t.Errorf("cached summary %v is not 5x faster than the scan %v", cached, sumScan)
	}
}

// TestRestartCompactedParallelBeatsRawSequential gates the point of
// compaction and parallel replay: reopening a compacted archive on the
// default worker pool is faster than sequentially replaying the raw
// segment log it came from. 10k records in batches of 100 across
// 256 KiB segments; best of 3 opens each.
func TestRestartCompactedParallelBeatsRawSequential(t *testing.T) {
	smallSegments(t, 256<<10)
	dir := t.TempDir()
	s, err := OpenStoreWith(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const records = 10000
	recs := benchRecords(records)
	for i := 0; i < records; i += 100 {
		if _, err := s.IngestBatchKeyed("", recs[i:i+100]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	reopen := func() time.Duration {
		best := time.Duration(math.MaxInt64)
		for i := 0; i < 3; i++ {
			start := time.Now()
			st, err := OpenStoreWith(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
			if st.Len() != records {
				t.Fatalf("replayed %d records, want %d", st.Len(), records)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		}
		return best
	}

	withReplayPool(t, 1)
	rawSequential := reopen()
	withReplayPool(t, 0)
	st, err := OpenStoreWith(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	compacted := reopen()
	t.Logf("restart of %d records: raw sequential %v, compacted parallel %v (%.2fx)",
		records, rawSequential, compacted, float64(rawSequential)/float64(compacted))
	if compacted >= rawSequential {
		t.Errorf("compacted parallel replay %v is not faster than raw sequential replay %v", compacted, rawSequential)
	}
}

// TestWatchFanout gates live fan-out over HTTP on a durable hub: 8 SSE
// watchers, all subscribed before the first publish, follow 2,000 events
// published in 40-event batches at 2,000 events/s. Every watcher must see
// every seq exactly once and in order, with no eviction and no watch
// error, at more than 1,000 deliveries/s overall, and the p99 of publish
// (PubNanos) to delivery must stay under 500ms.
func TestWatchFanout(t *testing.T) {
	const (
		watchers = 8
		events   = 2000
		batch    = 40
		rate     = 2000 // events/s
	)
	hub, err := OpenHub(HubOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	srv := httptest.NewServer(Serve(NewStore(), WithHub(hub)))
	defer srv.Close()
	client := NewClient(srv.URL)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	type result struct {
		lags []time.Duration
		err  error
	}
	results := make([]result, watchers)
	var wg sync.WaitGroup
	for w := range results {
		watcher, err := client.Watch(ctx, WatchOptions{Experiment: "fanout"})
		if err != nil {
			t.Fatal(err)
		}
		defer watcher.Close()
		wg.Add(1)
		go func(r *result) {
			defer wg.Done()
			for want := int64(1); want <= events; want++ {
				ev, err := watcher.Next()
				if err != nil {
					r.err = fmt.Errorf("after seq %d: %w", want-1, err)
					return
				}
				r.lags = append(r.lags, time.Since(time.Unix(0, ev.PubNanos)))
				if ev.Seq != want || ev.SrcSeq != int(want-1) {
					r.err = fmt.Errorf("got seq %d (src %d), want %d", ev.Seq, ev.SrcSeq, want)
					return
				}
			}
		}(&results[w])
	}

	start := time.Now()
	tick := time.NewTicker(time.Second * batch / rate)
	defer tick.Stop()
	for sent := 0; sent < events; sent += batch {
		if sent > 0 {
			<-tick.C
		}
		evs := make([]StreamEvent, batch)
		stamp := time.Now().UnixNano()
		for i := range evs {
			evs[i] = StreamEvent{Experiment: "fanout", Kind: "bench", Time: time.Unix(0, stamp), SrcSeq: sent + i, PubNanos: stamp}
		}
		if _, err := client.PublishEventsKeyed("", evs); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	var lags []time.Duration
	for w, r := range results {
		if r.err != nil {
			t.Fatalf("watcher %d: %v", w, r.err)
		}
		lags = append(lags, r.lags...)
	}
	slices.Sort(lags)
	p99 := lags[len(lags)*99/100]
	perSec := float64(len(lags)) / elapsed.Seconds()
	t.Logf("%d deliveries to %d watchers in %v (%.0f/s), fan-out p99 %v", len(lags), watchers, elapsed, perSec, p99)
	if perSec <= 1000 {
		t.Errorf("%.0f deliveries/s, want > 1000", perSec)
	}
	if p99 >= 500*time.Millisecond {
		t.Errorf("fan-out p99 %v, want < 500ms", p99)
	}
}
