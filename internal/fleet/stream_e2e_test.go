package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"colormatch/internal/portal"
)

// End-to-end tests for live event streaming: a real fleet run feeding a real
// HTTP portal, watched over GET /watch by a client that disconnects on
// purpose (or because the portal restarts, or because a workcell dies) and
// resumes from its cursor. The invariant under test is the ISSUE's
// acceptance bar: however the connection drops, the resumed stream has no
// gaps and no duplicates.
//
// Stream-shape invariant: for every (experiment, campaign, run) attempt the
// watcher must observe SrcSeq -1 (campaign_start), then 0..n-1 (the engine
// events in log order), then n == len(engine events) (campaign_end) — a
// contiguous run with nothing missing and nothing repeated.

// streamTally accumulates watched events and checks the invariant.
type streamTally struct {
	mu     sync.Mutex
	byRun  map[string][]portal.StreamEvent
	seen   map[string]bool // (run key, srcSeq) duplicate guard
	events int
	dups   int
}

func newStreamTally() *streamTally {
	return &streamTally{byRun: map[string][]portal.StreamEvent{}, seen: map[string]bool{}}
}

func (st *streamTally) add(ev portal.StreamEvent) {
	st.mu.Lock()
	defer st.mu.Unlock()
	key := fmt.Sprintf("%s|%s|%d", ev.Experiment, ev.Campaign, ev.Run)
	dupKey := fmt.Sprintf("%s|%d", key, ev.SrcSeq)
	if st.seen[dupKey] {
		st.dups++
		return
	}
	st.seen[dupKey] = true
	st.byRun[key] = append(st.byRun[key], ev)
	st.events++
}

func (st *streamTally) check(t *testing.T) {
	t.Helper()
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.dups > 0 {
		t.Errorf("watched stream contained %d duplicate events", st.dups)
	}
	if len(st.byRun) == 0 {
		t.Fatal("watched stream saw no campaign attempts at all")
	}
	for key, evs := range st.byRun {
		for i, ev := range evs {
			if want := i - 1; ev.SrcSeq != want {
				t.Fatalf("attempt %s: arrival %d has src_seq %d, want %d (gap or reorder)", key, i, ev.SrcSeq, want)
			}
		}
		if first := evs[0]; first.Kind != "campaign_start" {
			t.Fatalf("attempt %s starts with %q, want campaign_start", key, first.Kind)
		}
		last := evs[len(evs)-1]
		if last.Kind != "campaign_end" {
			t.Fatalf("attempt %s ends with %q (src_seq %d), want campaign_end — stream truncated", key, last.Kind, last.SrcSeq)
		}
		if last.SrcSeq != len(evs)-2 {
			t.Fatalf("attempt %s: campaign_end src_seq %d, want %d engine events", key, last.SrcSeq, len(evs)-2)
		}
	}
}

// watchAll follows the stream from cursor until the run is over (done is
// closed) and every event up to lastSeq() has been delivered, reconnecting
// from the cursor every time the connection drops — and, when killEvery > 0,
// deliberately killing its own connection every killEvery events to exercise
// resume continuously. Closing done cancels the live connection, so a
// watcher parked in Next when the run ends returns at once.
func watchAll(t *testing.T, client *portal.Client, tally *streamTally, cursor string, lastSeq func() int64, done <-chan struct{}, killEvery int) {
	t.Helper()
	runCtx, endRun := context.WithCancel(context.Background())
	defer endRun()
	go func() {
		select {
		case <-done:
			endRun()
		case <-runCtx.Done():
		}
	}()
	over := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	deadline := time.Now().Add(5 * time.Minute)
	sinceKill := 0
	var lastDelivered int64
	for {
		if time.Now().After(deadline) {
			t.Errorf("watcher timed out at seq %d", lastDelivered)
			return
		}
		if over() && lastDelivered >= lastSeq() {
			return
		}
		// A connection opened during the run ends with it; one opened
		// after drains the tail. The cap keeps a connection that a fault
		// leaves silent from outliving the deadline above.
		parent := runCtx
		if over() {
			parent = context.Background()
		}
		ctx, cancel := context.WithTimeout(parent, 5*time.Second)
		w, err := client.Watch(ctx, portal.WatchOptions{Cursor: cursor})
		if err != nil {
			cancel()
			// The portal may be mid-restart; retry from the same cursor.
			time.Sleep(10 * time.Millisecond)
			continue
		}
		for {
			ev, err := w.Next()
			if err != nil {
				// Dropped — evicted, portal closed, EOF, the run's end or
				// this connection's lifetime cap. All resumable.
				if !errors.Is(err, portal.ErrSlowSubscriber) && !errors.Is(err, portal.ErrStreamClosed) &&
					!errors.Is(err, io.EOF) && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
					t.Logf("watcher drop: %v", err)
				}
				break
			}
			tally.add(ev)
			lastDelivered = ev.Seq
			sinceKill++
			if killEvery > 0 && sinceKill >= killEvery {
				sinceKill = 0
				break // deliberate mid-stream disconnect
			}
			if over() && lastDelivered >= lastSeq() {
				cursor = w.Cursor()
				w.Close()
				cancel()
				return
			}
		}
		cursor = w.Cursor()
		w.Close()
		cancel()
	}
}

// TestStreamE2EReconnect: fleet run against an HTTP portal with the watcher
// killing its own connection every few events; the spliced stream must be
// gap-free and duplicate-free.
func TestStreamE2EReconnect(t *testing.T) {
	hub, err := portal.OpenHub(portal.HubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	srv := httptest.NewServer(portal.Serve(portal.NewStore(), portal.WithHub(hub)))
	defer srv.Close()
	client := portal.NewClient(srv.URL)

	pub := portal.NewEventPublisher(client, portal.PublisherOptions{FlushInterval: 10 * time.Millisecond})
	runOver := make(chan struct{})

	tally := newStreamTally()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		watchAll(t, client, tally, portal.StreamStart, hub.LastSeq, runOver, 7)
	}()

	res, err := Run(context.Background(), quickCampaigns(4, 8), Options{Workcells: 2, Seed: 5, EventSink: pub})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 4 {
		t.Fatalf("completed = %d", res.Completed)
	}
	if err := pub.Close(); err != nil {
		t.Fatalf("publisher close: %v", err)
	}
	if n := pub.Dropped(); n > 0 {
		t.Fatalf("publisher dropped %d events", n)
	}
	close(runOver)
	wg.Wait()

	tally.check(t)
	if int64(tally.events) != hub.LastSeq() {
		t.Fatalf("watcher saw %d events, hub holds %d", tally.events, hub.LastSeq())
	}
	if len(tally.byRun) != 4 {
		t.Fatalf("watched %d attempts, want 4", len(tally.byRun))
	}
}

// TestStreamE2EPortalRestartMidStream: the portal process (server + durable
// store + durable hub) is killed and reopened on the same address while the
// publisher still holds undelivered events. The publisher's retries bridge
// the outage (idempotency keys survive via the event log), and the watcher
// resumes from its pre-restart cursor against the replayed hub.
func TestStreamE2EPortalRestartMidStream(t *testing.T) {
	dir := t.TempDir()
	open := func() (*portal.Store, *portal.Hub, error) {
		store, err := portal.OpenStoreWith(dir, portal.Options{})
		if err != nil {
			return nil, nil, err
		}
		hub, err := portal.OpenHub(portal.HubOptions{Dir: dir + "/events"})
		if err != nil {
			store.Close()
			return nil, nil, err
		}
		return store, hub, nil
	}
	store, hub, err := open()
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	srv := &http.Server{Handler: portal.Serve(store, portal.WithHub(hub))}
	go srv.Serve(ln)
	client := portal.NewClient("http://" + addr)

	// A background flush cadence long past the test keeps every fleet event
	// queued in the publisher until Close — so the whole stream is still
	// undelivered when the portal goes down, and Close's paced retries must
	// carry it across the outage.
	pub := portal.NewEventPublisher(client, portal.PublisherOptions{
		MaxBatch: 1 << 20, FlushInterval: time.Hour,
	})
	res, err := Run(context.Background(), quickCampaigns(3, 8), Options{Workcells: 2, Seed: 7, EventSink: pub})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 3 {
		t.Fatalf("completed = %d", res.Completed)
	}

	// Give the pre-restart watcher something real to consume: one complete
	// synthetic attempt published directly (the fleet's own events are all
	// still held by the publisher).
	if _, err := client.PublishEventsKeyed("", []portal.StreamEvent{
		{Experiment: "probe", Campaign: "pre-restart", Kind: "campaign_start", SrcSeq: -1},
		{Experiment: "probe", Campaign: "pre-restart", Kind: "campaign_end", SrcSeq: 0},
	}); err != nil {
		t.Fatal(err)
	}
	tally := newStreamTally()
	preCtx, preCancel := context.WithTimeout(context.Background(), 10*time.Second)
	w, err := client.Watch(preCtx, portal.WatchOptions{Cursor: portal.StreamStart})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := w.Next()
	if err != nil {
		t.Fatal(err)
	}
	tally.add(ev)
	cursor := w.Cursor()
	w.Close()
	preCancel()

	// Kill the portal: server, hub, and store all go down mid-stream, with
	// the fleet's whole event stream still inside the publisher.
	seqBefore := hub.LastSeq()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := hub.Close(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Drain while the portal is DOWN: Close's first flush hits a dead
	// address and must retry until the reopened portal answers.
	closeErr := make(chan error, 1)
	go func() { closeErr <- pub.Close() }()
	time.Sleep(150 * time.Millisecond) // let the first attempt fail against the outage

	// Reopen on the same address with the same data dir.
	store2, hub2, err := open()
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer store2.Close()
	defer hub2.Close()
	if hub2.LastSeq() < seqBefore {
		t.Fatalf("hub replayed to seq %d, had %d before the restart", hub2.LastSeq(), seqBefore)
	}
	var ln2 net.Listener
	for i := 0; i < 100; i++ {
		if ln2, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("relisten on %s: %v", addr, err)
	}
	srv2 := &http.Server{Handler: portal.Serve(store2, portal.WithHub(hub2))}
	go srv2.Serve(ln2)
	defer srv2.Close()

	if err := <-closeErr; err != nil {
		t.Fatalf("publisher close across restart: %v", err)
	}
	if n := pub.Dropped(); n > 0 {
		t.Fatalf("publisher dropped %d events across the restart", n)
	}
	// Resume the watcher from its pre-restart cursor against the replayed
	// hub: the spliced stream must hold every attempt with no gap or dup.
	final := hub2.LastSeq()
	runOver := make(chan struct{})
	close(runOver)
	watchAll(t, client, tally, cursor, func() int64 { return final }, runOver, 0)
	tally.check(t)
	if int64(tally.events) != final {
		t.Fatalf("watcher saw %d events, hub holds %d (gap or dup across restart)", tally.events, final)
	}
	if len(tally.byRun) != 4 { // 3 fleet campaigns + the synthetic probe attempt
		t.Fatalf("watched %d attempts, want 4", len(tally.byRun))
	}
}

// TestStreamE2EChurn is the acceptance-bar scenario: a churning run — a
// workcell dies mid-campaign and is readmitted — streaming to the portal
// while the dashboard client disconnects every few events. Every attempt's
// stream (including the failed attempt on the killed cell) must arrive
// gap-free and duplicate-free. Campaign count scales down under -short;
// the full 100-campaign run is the CI race job's version.
func TestStreamE2EChurn(t *testing.T) {
	n := 100
	if testing.Short() {
		n = 20
	}
	pool, err := NewChurnPool(ChurnPoolOptions{Cells: 2, Seed: 1, ActDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	reg := NewRegistry(RegistryOptions{
		ProbeInterval: 5 * time.Millisecond,
		MaxDowntime:   time.Minute,
		Seed:          1,
	})
	defer reg.Close()
	if err := pool.Register(reg, churnRemoteOpts); err != nil {
		t.Fatal(err)
	}
	pool.KillAfterActions(0, 30)
	go func() {
		deadline := time.Now().Add(30 * time.Second)
		for pool.Deaths(0) == 0 {
			if time.Now().After(deadline) {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond)
		pool.Restart(0)
	}()

	hub, err := portal.OpenHub(portal.HubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	srv := httptest.NewServer(portal.Serve(portal.NewStore(), portal.WithHub(hub)))
	defer srv.Close()
	client := portal.NewClient(srv.URL)
	pub := portal.NewEventPublisher(client, portal.PublisherOptions{FlushInterval: 10 * time.Millisecond})

	runOver := make(chan struct{})
	tally := newStreamTally()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		watchAll(t, client, tally, portal.StreamStart, hub.LastSeq, runOver, 97)
	}()

	campaigns := quickCampaigns(n, 8)
	res, err := Run(context.Background(), campaigns, Options{Registry: reg, Batch: 4, Seed: 1, EventSink: pub})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != n {
		t.Fatalf("completed = %d, want %d", res.Completed, n)
	}
	if pool.Deaths(0) < 1 {
		t.Fatal("cell 0 never died; the churn never happened")
	}
	if res.Readmissions < 1 {
		t.Fatalf("readmissions = %d, want >= 1", res.Readmissions)
	}
	if err := pub.Close(); err != nil {
		t.Fatalf("publisher close: %v", err)
	}
	if dropped := pub.Dropped(); dropped > 0 {
		t.Fatalf("publisher dropped %d events", dropped)
	}
	close(runOver)
	wg.Wait()

	tally.check(t)
	if int64(tally.events) != hub.LastSeq() {
		t.Fatalf("watcher saw %d events, hub holds %d", tally.events, hub.LastSeq())
	}
	// Every campaign completed, so at least n attempts streamed; retried
	// campaigns (the churn casualties) add their failed attempts on top.
	if len(tally.byRun) < n {
		t.Fatalf("watched %d attempts, want >= %d", len(tally.byRun), n)
	}
}
