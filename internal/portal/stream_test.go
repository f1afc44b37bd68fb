package portal

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

func benchEvent(exp string, srcSeq int) StreamEvent {
	return StreamEvent{
		Experiment: exp,
		Kind:       "step_end",
		Time:       time.Date(2023, 8, 16, 9, 0, srcSeq, 0, time.UTC),
		SrcSeq:     srcSeq,
	}
}

func mustPublish(t *testing.T, h *Hub, evs ...StreamEvent) string {
	t.Helper()
	cursor, err := h.PublishEventsKeyed("", evs)
	if err != nil {
		t.Fatalf("publish: %v", err)
	}
	return cursor
}

func collectN(t *testing.T, sub *Subscriber, n int) []StreamEvent {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out := make([]StreamEvent, 0, n)
	for len(out) < n {
		ev, err := sub.Next(ctx)
		if err != nil {
			t.Fatalf("next after %d events: %v", len(out), err)
		}
		out = append(out, ev)
	}
	return out
}

func TestStreamPublishSubscribeLive(t *testing.T) {
	h, err := OpenHub(HubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	sub, err := h.Subscribe(SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()

	mustPublish(t, h, benchEvent("a", 0), benchEvent("a", 1))
	mustPublish(t, h, benchEvent("a", 2))
	got := collectN(t, sub, 3)
	for i, ev := range got {
		if ev.Seq != int64(i+1) || ev.SrcSeq != i {
			t.Fatalf("event %d: seq=%d srcSeq=%d, want %d/%d", i, ev.Seq, ev.SrcSeq, i+1, i)
		}
	}
	if h.LastSeq() != 3 {
		t.Fatalf("LastSeq = %d, want 3", h.LastSeq())
	}
}

func TestStreamBackfillThenLiveNoGapNoDup(t *testing.T) {
	h, err := OpenHub(HubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	for i := 0; i < 5; i++ {
		mustPublish(t, h, benchEvent("a", i))
	}
	// Resume from the start: backfill of 5, then live events spliced in.
	sub, err := h.Subscribe(SubscribeOptions{Cursor: StreamStart})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	for i := 5; i < 8; i++ {
		mustPublish(t, h, benchEvent("a", i))
	}
	got := collectN(t, sub, 8)
	for i, ev := range got {
		if ev.Seq != int64(i+1) {
			t.Fatalf("splice broke ordering: event %d has seq %d", i, ev.Seq)
		}
	}
}

func TestStreamResumeFromCursor(t *testing.T) {
	h, err := OpenHub(HubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	for i := 0; i < 6; i++ {
		mustPublish(t, h, benchEvent("a", i))
	}
	sub1, err := h.Subscribe(SubscribeOptions{Cursor: StreamStart})
	if err != nil {
		t.Fatal(err)
	}
	first := collectN(t, sub1, 3)
	cursor := sub1.Cursor()
	sub1.Cancel()

	sub2, err := h.Subscribe(SubscribeOptions{Cursor: cursor})
	if err != nil {
		t.Fatal(err)
	}
	defer sub2.Cancel()
	rest := collectN(t, sub2, 3)
	all := append(first, rest...)
	for i, ev := range all {
		if ev.Seq != int64(i+1) {
			t.Fatalf("resume produced gap/dup: position %d has seq %d", i, ev.Seq)
		}
	}
}

func TestStreamExperimentFilter(t *testing.T) {
	h, err := OpenHub(HubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	sub, err := h.Subscribe(SubscribeOptions{Experiment: "want"})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	mustPublish(t, h, benchEvent("other", 0), benchEvent("want", 0), benchEvent("other", 1), benchEvent("want", 1))
	got := collectN(t, sub, 2)
	for i, ev := range got {
		if ev.Experiment != "want" || ev.SrcSeq != i {
			t.Fatalf("filtered feed wrong: %+v", ev)
		}
	}
}

func TestStreamBadCursors(t *testing.T) {
	h, err := OpenHub(HubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	mustPublish(t, h, benchEvent("a", 0))

	for _, cursor := range []string{"garbage!!!", "AAAA", encodeStreamCursor(99)} {
		if _, err := h.Subscribe(SubscribeOptions{Cursor: cursor}); !errors.Is(err, ErrInvalid) {
			t.Fatalf("cursor %q: err = %v, want ErrInvalid", cursor, err)
		}
	}
}

func TestStreamHistoryTrimTruncatesOldCursors(t *testing.T) {
	h, err := OpenHub(HubOptions{MaxHistory: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	for i := 0; i < 10; i++ {
		mustPublish(t, h, benchEvent("a", i))
	}
	if _, err := h.Subscribe(SubscribeOptions{Cursor: StreamStart}); !errors.Is(err, ErrCursorTruncated) {
		t.Fatalf("trimmed cursor err = %v, want ErrCursorTruncated", err)
	}
	// The retained window still backfills.
	sub, err := h.Subscribe(SubscribeOptions{Cursor: encodeStreamCursor(6)})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	got := collectN(t, sub, 4)
	if got[0].Seq != 7 || got[3].Seq != 10 {
		t.Fatalf("window backfill = seqs %d..%d, want 7..10", got[0].Seq, got[3].Seq)
	}
}

func TestStreamSlowSubscriberEvicted(t *testing.T) {
	h, err := OpenHub(HubOptions{SubscriberBuffer: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	sub, err := h.Subscribe(SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Never read: the 5th event overflows the buffer and must evict, not block.
	for i := 0; i < 6; i++ {
		mustPublish(t, h, benchEvent("a", i))
	}
	if h.Subscribers() != 0 {
		t.Fatalf("stalled subscriber still registered")
	}
	// The buffered prefix is still delivered, in order, before the verdict.
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		ev, err := sub.Next(ctx)
		if err != nil {
			t.Fatalf("buffered event %d: %v", i, err)
		}
		if ev.Seq != int64(i+1) {
			t.Fatalf("buffered event %d has seq %d", i, ev.Seq)
		}
	}
	if _, err := sub.Next(ctx); !errors.Is(err, ErrSlowSubscriber) {
		t.Fatalf("final err = %v, want ErrSlowSubscriber", err)
	}
	// Eviction is lossless end-to-end: the cursor resumes exactly after the
	// last delivered event.
	resumed, err := h.Subscribe(SubscribeOptions{Cursor: sub.Cursor()})
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Cancel()
	got := collectN(t, resumed, 2)
	if got[0].Seq != 5 || got[1].Seq != 6 {
		t.Fatalf("post-eviction resume = seqs %d,%d, want 5,6", got[0].Seq, got[1].Seq)
	}
}

func TestStreamPublishKeyedDedupes(t *testing.T) {
	h, err := OpenHub(HubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	c1, err := h.PublishEventsKeyed("k1", []StreamEvent{benchEvent("a", 0)})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := h.PublishEventsKeyed("k1", []StreamEvent{benchEvent("a", 0)})
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatalf("retried key returned different cursor: %q vs %q", c1, c2)
	}
	if h.LastSeq() != 1 {
		t.Fatalf("retried key re-appended: LastSeq = %d", h.LastSeq())
	}
}

func TestStreamInvalidEventsRejected(t *testing.T) {
	h, err := OpenHub(HubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if _, err := h.PublishEventsKeyed("", []StreamEvent{{Kind: "x"}}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("empty experiment err = %v, want ErrInvalid", err)
	}
	if _, err := h.PublishEventsKeyed("", []StreamEvent{{Experiment: "a"}}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("empty kind err = %v, want ErrInvalid", err)
	}
}

func TestStreamDurableReplay(t *testing.T) {
	dir := t.TempDir()
	smallSegments(t, 1<<10) // force rotations
	h, err := OpenHub(HubOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := h.PublishEventsKeyed(fmt.Sprintf("key-%d", i), []StreamEvent{benchEvent("a", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	h2, err := OpenHub(HubOptions{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer h2.Close()
	if h2.LastSeq() != 50 {
		t.Fatalf("replayed LastSeq = %d, want 50", h2.LastSeq())
	}
	// Dedupe memory survives the restart: a publisher retrying across it
	// still cannot double-append.
	if _, err := h2.PublishEventsKeyed("key-7", []StreamEvent{benchEvent("a", 7)}); err != nil {
		t.Fatal(err)
	}
	if h2.LastSeq() != 50 {
		t.Fatalf("replayed key re-appended: LastSeq = %d", h2.LastSeq())
	}
	// History replays too: a pre-restart cursor resumes cleanly.
	sub, err := h2.Subscribe(SubscribeOptions{Cursor: encodeStreamCursor(48)})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	got := collectN(t, sub, 2)
	if got[0].Seq != 49 || got[1].Seq != 50 {
		t.Fatalf("post-restart resume = %d,%d, want 49,50", got[0].Seq, got[1].Seq)
	}
}

// streamSegPath is the path of the hub's segment n under dir.
func streamSegPath(dir string, n int) string {
	return segFile(dir, "ev-", n)
}

// TestStreamTornTailTruncated damages the tail of a durable hub's log the
// two ways a crash can: a half-written batch line is truncated away, while a
// whole line that lost only its '\n' is kept and terminated. Either way the
// next publish must start a fresh line that survives another reopen.
func TestStreamTornTailTruncated(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(data []byte) []byte
	}{
		// Simulate a crash mid-append: a half-written line with no newline.
		{"torn", func(data []byte) []byte { return append(data, `{"events":[{"seq":3,"exper`...) }},
		{"missing-newline", func(data []byte) []byte { return data[:len(data)-1] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			h, err := OpenHub(HubOptions{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			mustPublish(t, h, benchEvent("a", 0))
			mustPublish(t, h, benchEvent("a", 1))
			if err := h.Close(); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(streamSegPath(dir, 1))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(streamSegPath(dir, 1), tc.damage(data), 0o644); err != nil {
				t.Fatal(err)
			}

			h2, err := OpenHub(HubOptions{Dir: dir})
			if err != nil {
				t.Fatalf("reopen with torn tail: %v", err)
			}
			if h2.LastSeq() != 2 {
				t.Fatalf("LastSeq = %d after torn-tail repair, want 2", h2.LastSeq())
			}
			// The log must be appendable again at the truncated position.
			mustPublish(t, h2, benchEvent("a", 2))
			if h2.LastSeq() != 3 {
				t.Fatalf("append after repair: LastSeq = %d, want 3", h2.LastSeq())
			}
			if err := h2.Close(); err != nil {
				t.Fatal(err)
			}
			h3, err := OpenHub(HubOptions{Dir: dir})
			if err != nil {
				t.Fatalf("reopen after repair: %v", err)
			}
			defer h3.Close()
			if h3.LastSeq() != 3 {
				t.Fatalf("reopen after repair: LastSeq = %d, want 3", h3.LastSeq())
			}
		})
	}
}

func TestStreamCorruptionIsLoud(t *testing.T) {
	dir := t.TempDir()
	h, err := OpenHub(HubOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustPublish(t, h, benchEvent("a", 0))
	mustPublish(t, h, benchEvent("a", 1))
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	// Terminated damage mid-log is not a torn tail; replay must refuse.
	data, err := os.ReadFile(streamSegPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	lines[0] = "{broken json}\n"
	if err := os.WriteFile(streamSegPath(dir, 1), []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenHub(HubOptions{Dir: dir}); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("corrupt mid-log replay err = %v, want loud corruption", err)
	}
}

func TestStreamHubCloseWakesSubscribers(t *testing.T) {
	h, err := OpenHub(HubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := h.Subscribe(SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := sub.Next(context.Background())
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let Next block
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrStreamClosed) {
			t.Fatalf("Next after close = %v, want ErrStreamClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next still blocked after hub close")
	}
	if _, err := h.PublishEventsKeyed("", []StreamEvent{benchEvent("a", 0)}); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("publish after close = %v, want ErrStreamClosed", err)
	}
}

// --- HTTP layer ------------------------------------------------------------

func newStreamServer(t *testing.T) (*Hub, *Client) {
	t.Helper()
	h, err := OpenHub(HubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	srv := httptest.NewServer(Serve(NewStore(), WithHub(h)))
	t.Cleanup(srv.Close)
	return h, NewClient(srv.URL)
}

func TestWatchHTTPLiveSSE(t *testing.T) {
	h, client := newStreamServer(t)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	w, err := client.Watch(ctx, WatchOptions{Cursor: StreamStart})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	cursor, err := client.PublishEventsKeyed("", []StreamEvent{benchEvent("a", 0), benchEvent("a", 1)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		ev, err := w.Next()
		if err != nil {
			t.Fatalf("next %d: %v", i, err)
		}
		if ev.Seq != int64(i+1) {
			t.Fatalf("event %d: seq %d", i, ev.Seq)
		}
	}
	if w.Cursor() != cursor {
		t.Fatalf("watcher cursor %q, want publish cursor %q", w.Cursor(), cursor)
	}
	_ = h
}

// TestEmptyEventBatchAnswersLiveCursor: the hub and the HTTP client answer
// an empty batch alike. With no key it is the hub's live cursor; under a
// committed key it is the cursor that key got. Neither appends an event.
func TestEmptyEventBatchAnswersLiveCursor(t *testing.T) {
	h, client := newStreamServer(t)
	committed, err := h.PublishEventsKeyed("k1", []StreamEvent{benchEvent("a", 0)})
	if err != nil {
		t.Fatal(err)
	}
	live := mustPublish(t, h, benchEvent("a", 1))
	sinks := []struct {
		name string
		sink KeyedEventSink
	}{{"hub", h}, {"client", client}}
	for _, tc := range []struct{ key, want string }{{"", live}, {"k1", committed}} {
		for _, s := range sinks {
			got, err := s.sink.PublishEventsKeyed(tc.key, nil)
			if err != nil {
				t.Fatalf("%s, key %q: %v", s.name, tc.key, err)
			}
			if got != tc.want {
				t.Errorf("%s, key %q: cursor %q, want %q", s.name, tc.key, got, tc.want)
			}
		}
	}
	if h.LastSeq() != 2 {
		t.Fatalf("empty batches appended: LastSeq = %d, want 2", h.LastSeq())
	}
}

func TestWatchHTTPReconnectFromCursor(t *testing.T) {
	_, client := newStreamServer(t)

	if _, err := client.PublishEventsKeyed("", []StreamEvent{benchEvent("a", 0), benchEvent("a", 1), benchEvent("a", 2)}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	w, err := client.Watch(ctx, WatchOptions{Cursor: StreamStart})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Next(); err != nil {
		t.Fatal(err)
	}
	cursor := w.Cursor()
	w.Close() // client dies mid-stream

	w2, err := client.Watch(ctx, WatchOptions{Cursor: cursor})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	ev, err := w2.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Seq != 3 {
		t.Fatalf("reconnect resumed at seq %d, want 3 (no gap, no dup)", ev.Seq)
	}
}

func TestWatchHTTPBadCursorStatuses(t *testing.T) {
	h, client := newStreamServer(t)
	ctx := context.Background()

	if _, err := client.Watch(ctx, WatchOptions{Cursor: "!!!not-a-cursor!!!"}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("malformed cursor err = %v, want ErrInvalid (HTTP 400)", err)
	}
	if _, err := client.Watch(ctx, WatchOptions{Cursor: encodeStreamCursor(10)}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("ahead-of-stream cursor err = %v, want ErrInvalid (HTTP 400)", err)
	}
	_ = h
}

// noFlushWriter is a ResponseWriter that cannot flush, such as a buffering
// middleware's.
type noFlushWriter struct{ http.ResponseWriter }

// TestWatchWithoutFlusherIsError: /watch speaks only SSE, so a connection
// that cannot stream gets an HTTP error instead of a different protocol.
func TestWatchWithoutFlusherIsError(t *testing.T) {
	h, err := OpenHub(HubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	rec := httptest.NewRecorder()
	serveWatch(h, noFlushWriter{rec}, httptest.NewRequest(http.MethodGet, "/watch?cursor="+StreamStart, nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("Content-Type = %q, want a plain error", ct)
	}
	if h.Subscribers() != 0 {
		t.Fatalf("%d subscribers left behind, want 0", h.Subscribers())
	}
}

func TestWatchHTTPTruncatedCursorIsGone(t *testing.T) {
	h, err := OpenHub(HubOptions{MaxHistory: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	srv := httptest.NewServer(Serve(NewStore(), WithHub(h)))
	t.Cleanup(srv.Close)
	client := NewClient(srv.URL)
	for i := 0; i < 5; i++ {
		if _, err := client.PublishEventsKeyed("", []StreamEvent{benchEvent("a", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.Watch(context.Background(), WatchOptions{Cursor: StreamStart}); !errors.Is(err, ErrCursorTruncated) {
		t.Fatalf("trimmed cursor err = %v, want ErrCursorTruncated (HTTP 410)", err)
	}
}

func TestWatchHTTPEvictionFrame(t *testing.T) {
	h, err := OpenHub(HubOptions{SubscriberBuffer: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	srv := httptest.NewServer(Serve(NewStore(), WithHub(h)))
	t.Cleanup(srv.Close)
	client := NewClient(srv.URL)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	w, err := client.Watch(ctx, WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// Overrun the subscriber's buffer without the watcher reading. The SSE
	// handler drains the subscription into the response until the unread
	// TCP path backs up, so ship bulky batches — each event carries a fat
	// note — until the socket fills, the handler stalls mid-write, and the
	// hub evicts the stalled subscription.
	bulky := benchEvent("a", 0)
	bulky.Note = strings.Repeat("x", 16<<10)
	batch := make([]StreamEvent, 64)
	deadline := time.Now().Add(20 * time.Second)
	for i := 0; h.Subscribers() > 0; i++ {
		if time.Now().After(deadline) {
			t.Fatal("subscriber never evicted")
		}
		for j := range batch {
			batch[j] = bulky
			batch[j].SrcSeq = i*len(batch) + j
		}
		if _, err := client.PublishEventsKeyed("", batch); err != nil {
			t.Fatal(err)
		}
	}
	// The watcher drains what was delivered, then gets the eviction verdict.
	sawEviction := false
	for !sawEviction {
		_, err := w.Next()
		switch {
		case err == nil:
		case errors.Is(err, ErrSlowSubscriber):
			sawEviction = true
		default:
			t.Fatalf("watcher ended with %v, want ErrSlowSubscriber", err)
		}
	}
	// And its cursor resumes with no gap.
	w2, err := client.Watch(ctx, WatchOptions{Cursor: w.Cursor()})
	if err != nil {
		t.Fatalf("resume after eviction: %v", err)
	}
	w2.Close()
}

func TestStreamRoutesAbsentWithoutHub(t *testing.T) {
	srv := httptest.NewServer(Serve(NewStore()))
	t.Cleanup(srv.Close)
	for _, path := range []string{"/watch", "/events"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s without hub = %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestIndexLiveModeOnlyWithHub(t *testing.T) {
	h, client := newStreamServer(t)
	defer h.Close()
	var sb strings.Builder
	resp, err := http.Get(client.BaseURL + "/")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64<<10)
	for {
		n, rerr := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	resp.Body.Close()
	if !strings.Contains(sb.String(), "EventSource") {
		t.Fatal("index with hub lacks the live-mode EventSource")
	}

	plain := httptest.NewServer(Serve(NewStore()))
	defer plain.Close()
	resp2, err := http.Get(plain.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	var sb2 strings.Builder
	for {
		n, rerr := resp2.Body.Read(buf)
		sb2.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	resp2.Body.Close()
	if strings.Contains(sb2.String(), "EventSource") {
		t.Fatal("index without hub should not ship live mode")
	}
}

// --- SSE parser ------------------------------------------------------------

func TestSSEScannerFrames(t *testing.T) {
	wire := "" +
		": ping\n" +
		"id: c1\ndata: {\"seq\":1}\n\n" +
		"id: c2\r\ndata: line1\r\ndata: line2\r\n\r\n" +
		"event: evicted\ndata: slow consumer\n\n" +
		"data: dangling-never-dispatched"
	sc := newSSEScanner(strings.NewReader(wire))
	f1, err := sc.next()
	if err != nil || f1.id != "c1" || f1.data != `{"seq":1}` {
		t.Fatalf("frame 1 = %+v, %v", f1, err)
	}
	f2, err := sc.next()
	if err != nil || f2.id != "c2" || f2.data != "line1\nline2" {
		t.Fatalf("frame 2 (CRLF, multi-data) = %+v, %v", f2, err)
	}
	f3, err := sc.next()
	if err != nil || f3.event != "evicted" {
		t.Fatalf("frame 3 = %+v, %v", f3, err)
	}
	if _, err := sc.next(); !errors.Is(err, io.EOF) {
		t.Fatalf("dangling frame err = %v, want io.EOF (discarded per spec)", err)
	}
}

func TestStreamCursorRoundTrip(t *testing.T) {
	for _, seq := range []int64{0, 1, 42, 1 << 40} {
		got, err := decodeStreamCursor(encodeStreamCursor(seq))
		if err != nil || got != seq {
			t.Fatalf("round trip %d -> %d, %v", seq, got, err)
		}
	}
	// A search cursor is not a stream cursor.
	if _, err := decodeStreamCursor(encodeCursor(time.Now(), 3)); !errors.Is(err, ErrInvalid) {
		t.Fatalf("search cursor accepted as stream cursor: %v", err)
	}
}
