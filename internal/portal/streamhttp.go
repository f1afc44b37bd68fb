package portal

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// Streaming endpoints (mounted by Serve when a hub is attached):
//   POST /events               [StreamEvent] -> {"count": N, "cursor": ...}
//                              (optional X-Idempotency-Key header: a
//                              retried key returns the original commit's
//                              cursor without re-appending)
//   GET  /watch?experiment=&cursor=
//                              text/event-stream, one event per frame,
//                              frame id = resume cursor (Last-Event-ID is
//                              honoured when cursor= is absent), ": ping"
//                              comments as heartbeats, "event: evicted" /
//                              "event: closed" before a server-initiated
//                              end of stream. Malformed cursors are 400;
//                              cursors behind the hub's trimmed window are
//                              410.

// sseHeartbeat is the idle interval between ": ping" comment frames on an
// SSE watch — frequent enough that a dead TCP path is noticed, rare enough
// to be free. A variable so tests can shrink it.
var sseHeartbeat = 15 * time.Second

// registerStreamRoutes mounts the hub's endpoints on mux.
func registerStreamRoutes(mux *http.ServeMux, hub *Hub) {
	mux.HandleFunc("/events", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		var evs []StreamEvent
		if err := json.NewDecoder(req.Body).Decode(&evs); err != nil {
			http.Error(w, "bad events: "+err.Error(), http.StatusBadRequest)
			return
		}
		cursor, err := hub.PublishEventsKeyed(req.Header.Get(idempotencyHeader), evs)
		if err != nil {
			http.Error(w, err.Error(), ingestStatus(err))
			return
		}
		writeJSON(w, map[string]any{"count": len(evs), "cursor": cursor})
	})
	mux.HandleFunc("/watch", func(w http.ResponseWriter, req *http.Request) {
		serveWatch(hub, w, req)
	})
}

// watchStatus maps a subscribe error to its HTTP status: malformed or
// out-of-range cursors are the client's 400, a trimmed-away cursor is 410
// Gone (resume impossible, restart from live), everything else 500.
func watchStatus(err error) int {
	switch {
	case errors.Is(err, ErrInvalid):
		return http.StatusBadRequest
	case errors.Is(err, ErrCursorTruncated):
		return http.StatusGone
	default:
		return http.StatusInternalServerError
	}
}

func serveWatch(hub *Hub, w http.ResponseWriter, req *http.Request) {
	params := req.URL.Query()
	cursor := params.Get("cursor")
	if cursor == "" {
		// Standard SSE reconnect: browsers resend the last frame id they
		// saw. An explicit cursor param wins.
		cursor = req.Header.Get("Last-Event-ID")
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported by this connection", http.StatusInternalServerError)
		return
	}
	sub, err := hub.Subscribe(SubscribeOptions{Experiment: params.Get("experiment"), Cursor: cursor})
	if err != nil {
		http.Error(w, err.Error(), watchStatus(err))
		return
	}
	defer sub.Cancel()
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	// http.Flusher.Flush pushes buffered response bytes to the client and
	// returns no error — delivery failures surface on the next Write.
	flush := fl.Flush
	flush()
	ctx := req.Context()
	for {
		tctx, cancel := context.WithTimeout(ctx, sseHeartbeat)
		ev, err := sub.Next(tctx)
		cancel()
		switch {
		case err == nil:
			if werr := writeSSEEvent(w, ev); werr != nil {
				return // client went away
			}
			flush()
		case errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil:
			if _, werr := io.WriteString(w, ": ping\n\n"); werr != nil {
				return
			}
			flush()
		case errors.Is(err, ErrSlowSubscriber):
			// Tell the watcher why the stream ended; its cursor (the last
			// frame id it consumed) resumes with no gap.
			_, _ = io.WriteString(w, "event: evicted\ndata: slow consumer\n\n")
			return
		case errors.Is(err, ErrStreamClosed):
			_, _ = io.WriteString(w, "event: closed\ndata: stream closed\n\n")
			return
		default:
			return // client context ended
		}
	}
}

// writeSSEEvent emits one event frame. The frame id is the cursor resuming
// after this event, so a client reconnecting with its last seen id (or
// Watcher.Cursor) never sees a gap or a duplicate.
func writeSSEEvent(w io.Writer, ev StreamEvent) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %s\ndata: %s\n\n", encodeStreamCursor(ev.Seq), data)
	return err
}

// --- client side -----------------------------------------------------------

// PublishEventsKeyed implements KeyedEventSink over HTTP: the batch travels
// in one POST /events and is appended (and fanned out) atomically. The key
// rides X-Idempotency-Key, so a retry of a batch whose ack was lost in
// transit is answered from the hub's dedupe memory instead of
// double-appending.
func (c *Client) PublishEventsKeyed(key string, evs []StreamEvent) (string, error) {
	body, err := json.Marshal(evs)
	if err != nil {
		return "", fmt.Errorf("portal: encode events: %w", err)
	}
	req, err := http.NewRequest(http.MethodPost, c.BaseURL+"/events", bytes.NewReader(body))
	if err != nil {
		return "", fmt.Errorf("portal: publish events: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set(idempotencyHeader, key)
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return "", fmt.Errorf("portal: publish events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", ingestError("publish events", resp)
	}
	var out struct {
		Cursor string `json:"cursor"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", fmt.Errorf("portal: decode events response: %w", err)
	}
	return out.Cursor, nil
}

// WatchOptions configure a Client.Watch subscription.
type WatchOptions struct {
	// Experiment filters the feed; empty watches everything.
	Experiment string
	// Cursor resumes after a previously consumed position (Watcher.Cursor
	// from before a disconnect). Empty watches live; StreamStart backfills
	// from the beginning.
	Cursor string
}

// Watch opens a live SSE subscription on a remote portal. The connection
// stays open until ctx ends, Close is called, or the server terminates it;
// Next then reports why. After any disconnect, reconnect with
// WatchOptions{Cursor: w.Cursor()} to resume gap-free.
func (c *Client) Watch(ctx context.Context, o WatchOptions) (*Watcher, error) {
	params := url.Values{}
	if o.Experiment != "" {
		params.Set("experiment", o.Experiment)
	}
	if o.Cursor != "" {
		params.Set("cursor", o.Cursor)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/watch?"+params.Encode(), nil)
	if err != nil {
		return nil, fmt.Errorf("portal: watch: %w", err)
	}
	req.Header.Set("Accept", "text/event-stream")
	// The configured client timeout bounds whole requests; a watch is
	// open-ended by design, so it runs without one (ctx still cancels it).
	wc := *c.HTTP
	wc.Timeout = 0
	resp, err := wc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("portal: watch: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		err := fmt.Errorf("portal: watch: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
		switch resp.StatusCode {
		case http.StatusBadRequest:
			err = fmt.Errorf("%w: %v", ErrInvalid, err)
		case http.StatusGone:
			err = fmt.Errorf("%w: %v", ErrCursorTruncated, err)
		}
		return nil, err
	}
	// Before the first frame arrives, Cursor() is the position the caller
	// asked for: an empty live cursor re-subscribes live on reconnect,
	// which is the semantic they chose.
	return &Watcher{body: resp.Body, sc: newSSEScanner(resp.Body), cursor: o.Cursor}, nil
}

// Watcher consumes one /watch subscription.
type Watcher struct {
	body   io.ReadCloser
	sc     *sseScanner
	cursor string
}

// Next returns the next streamed event. A server-side eviction surfaces as
// ErrSlowSubscriber and an orderly hub shutdown as ErrStreamClosed; both —
// like any transport error — leave Cursor() at the exact resume position.
func (w *Watcher) Next() (StreamEvent, error) {
	for {
		fr, err := w.sc.next()
		if err != nil {
			return StreamEvent{}, err
		}
		switch fr.event {
		case "evicted":
			return StreamEvent{}, ErrSlowSubscriber
		case "closed":
			return StreamEvent{}, ErrStreamClosed
		case "", "message":
			if fr.data == "" {
				continue
			}
			var ev StreamEvent
			if err := json.Unmarshal([]byte(fr.data), &ev); err != nil {
				return StreamEvent{}, fmt.Errorf("portal: bad event frame: %w", err)
			}
			if fr.id != "" {
				w.cursor = fr.id
			}
			return ev, nil
		default:
			continue // unknown frame types are ignorable per the SSE contract
		}
	}
}

// Cursor returns the resume position after the last event Next delivered.
func (w *Watcher) Cursor() string { return w.cursor }

// Close tears down the subscription's transport.
func (w *Watcher) Close() error { return w.body.Close() }

// --- SSE wire-format parser ------------------------------------------------

// sseFrame is one parsed server-sent event.
type sseFrame struct {
	id    string
	event string
	data  string
}

// maxSSELineBytes bounds a single wire line so a malformed (or malicious)
// stream cannot balloon parser memory.
const maxSSELineBytes = 1 << 20

// sseScanner incrementally parses the text/event-stream wire format:
// "field: value" lines accumulated until a blank line dispatches the frame,
// ":" comment lines skipped, CR/LF line endings accepted, multiple data
// lines joined with newlines. It is deliberately total — any byte sequence
// either yields frames or a clean error, never a panic — and fuzzed as such
// (FuzzSSEParser).
type sseScanner struct {
	r *bufio.Reader
}

func newSSEScanner(r io.Reader) *sseScanner {
	return &sseScanner{r: bufio.NewReader(r)}
}

// next returns the next complete frame. io.EOF means an orderly end of
// stream; a frame left incomplete at EOF is discarded, per the SSE
// contract (it was never dispatched).
func (s *sseScanner) next() (sseFrame, error) {
	var fr sseFrame
	var data []string
	seen := false
	for {
		line, err := s.readLine()
		if err != nil {
			return sseFrame{}, err
		}
		if line == "" {
			if !seen {
				continue // stray blank between frames
			}
			fr.data = strings.Join(data, "\n")
			return fr, nil
		}
		if strings.HasPrefix(line, ":") {
			continue // comment (heartbeat)
		}
		field, value, _ := strings.Cut(line, ":")
		value = strings.TrimPrefix(value, " ")
		switch field {
		case "id":
			// Per spec an id containing NUL is ignored.
			if !strings.ContainsRune(value, 0) {
				fr.id = value
			}
		case "event":
			fr.event = value
		case "data":
			data = append(data, value)
		}
		// Unknown fields (incl. "retry") are parsed and dropped.
		seen = true
	}
}

// readLine reads one wire line, stripping the LF or CRLF terminator.
func (s *sseScanner) readLine() (string, error) {
	var buf []byte
	for {
		chunk, err := s.r.ReadSlice('\n')
		buf = append(buf, chunk...)
		if err == nil {
			break
		}
		if errors.Is(err, bufio.ErrBufferFull) {
			if len(buf) > maxSSELineBytes {
				return "", fmt.Errorf("portal: sse line exceeds %d bytes", maxSSELineBytes)
			}
			continue
		}
		// EOF (or transport error) with a partial line: the frame it
		// belonged to was never dispatched, so the bytes are discarded.
		return "", err
	}
	line := strings.TrimSuffix(string(buf), "\n")
	return strings.TrimSuffix(line, "\r"), nil
}
