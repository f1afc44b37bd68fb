package portal

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The streaming hub turns the portal from an archive into a serving system:
// fleets POST step events as they happen, dashboards GET /watch and see them
// live. The design mirrors the record store's persistence and pagination
// machinery one layer down:
//
//   - every published event gets a global, gapless sequence number — the
//     stream's cursor space, exactly the record store's keyset cursors;
//   - batches land in the same segment log the record store uses (segLog:
//     fsync commit point, tail repair on open, rotation) so a portal
//     restart loses nothing that was acknowledged;
//   - subscribers carry bounded buffers and are evicted — never waited on —
//     when they fall behind, so one stalled dashboard cannot stall the hub
//     or the fleet publishing into it;
//   - an evicted or crashed subscriber resumes from its last cursor and the
//     hub backfills from history, atomically spliced with the live feed, so
//     reconnects see no gaps and no duplicates.

// StreamEvent is one live step event on the wire. Seq is assigned by the
// hub at publish time and is the event's position in the stream's cursor
// space; everything else travels verbatim from the publisher.
type StreamEvent struct {
	// Seq is the hub-assigned global sequence number, 1-based and gapless.
	// Publishers leave it zero.
	Seq int64 `json:"seq,omitempty"`
	// Experiment scopes the event; /watch?experiment= filters on it.
	Experiment string `json:"experiment"`
	// Campaign and Run identify the producing campaign attempt (Run mirrors
	// the record store's run-number semantics: the scheduling attempt).
	Campaign string `json:"campaign,omitempty"`
	Run      int    `json:"run,omitempty"`
	// Kind is the event type: a wei.EventKind for engine events, or a
	// lifecycle marker ("campaign_start", "campaign_end") from the fleet.
	Kind string `json:"kind"`
	// Time is the experiment clock's stamp (virtual or real).
	Time time.Time `json:"time"`
	// SrcSeq is the event's sequence number in its source event log; -1 for
	// a campaign_start marker (emitted before the log's first event). With
	// Campaign and Run it lets a consumer prove per-campaign streams are
	// gap-free: engine events count 0,1,2,… with no holes.
	SrcSeq    int           `json:"src_seq"`
	Workflow  string        `json:"workflow,omitempty"`
	Step      string        `json:"step,omitempty"`
	Module    string        `json:"module,omitempty"`
	Action    string        `json:"action,omitempty"`
	Attempt   int           `json:"attempt,omitempty"`
	Duration  time.Duration `json:"duration,omitempty"`
	QueueWait time.Duration `json:"queue_wait,omitempty"`
	Err       string        `json:"err,omitempty"`
	Note      string        `json:"note,omitempty"`
	// PubNanos is the publisher's wall-clock stamp (UnixNano), set when the
	// event enters the publish queue. Subscribers on the same host subtract
	// it from their receive time to measure fan-out latency (perfbench's
	// watch lag, TestWatchFanout); it carries no experiment-time meaning.
	PubNanos int64 `json:"pub_nanos,omitempty"`
}

// EventSink is the producer's face of the stream: where the fleet hands
// each live step event. EventPublisher is the portal's implementation; it
// queues the events and ships them in keyed batches to a KeyedEventSink, so
// the cursor it returns is always "" (acknowledgement is asynchronous).
type EventSink interface {
	PublishEvents(evs []StreamEvent) (cursor string, err error)
}

// KeyedEventSink is the one way events enter a hub: Hub in process, Client
// over POST /events. A batch retried under the key it already committed
// with is answered from dedupe memory instead of appending a second copy,
// making publish-retry loops exactly-once downstream; an empty key
// disables dedupe for that batch. The returned cursor addresses the
// position after the batch's last event.
type KeyedEventSink interface {
	PublishEventsKeyed(key string, evs []StreamEvent) (cursor string, err error)
}

// Streaming errors. ErrSlowSubscriber and ErrStreamClosed terminate a
// subscription (the consumer reconnects from its cursor); ErrCursorTruncated
// rejects a cursor that points into history the hub has trimmed away
// (HTTP 410 — the watcher must restart from live or from StreamStart).
var (
	ErrSlowSubscriber  = errors.New("portal: subscriber evicted (slow consumer)")
	ErrStreamClosed    = errors.New("portal: stream closed")
	ErrCursorTruncated = errors.New("portal: cursor points before trimmed history")
)

// streamCursorPrefix namespaces stream cursors away from search cursors:
// the decoded form is "ev|<seq>".
const streamCursorPrefix = "ev|"

// encodeStreamCursor packs a stream position (the seq of the last consumed
// event; 0 = before the first) into the opaque wire form.
func encodeStreamCursor(seq int64) string {
	return base64.RawURLEncoding.EncodeToString([]byte(streamCursorPrefix + strconv.FormatInt(seq, 10)))
}

// decodeStreamCursor unpacks a cursor produced by encodeStreamCursor. All
// failures wrap ErrInvalid, so the watch handler answers malformed cursors
// with 400 and never a panic or a silent mis-resume.
func decodeStreamCursor(s string) (int64, error) {
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return 0, fmt.Errorf("%w: bad stream cursor: %v", ErrInvalid, err)
	}
	rest, ok := strings.CutPrefix(string(raw), streamCursorPrefix)
	if !ok {
		return 0, fmt.Errorf("%w: bad stream cursor %q", ErrInvalid, s)
	}
	seq, err := strconv.ParseInt(rest, 10, 64)
	if err != nil || seq < 0 {
		return 0, fmt.Errorf("%w: bad stream cursor %q", ErrInvalid, s)
	}
	return seq, nil
}

// StreamStart is the cursor addressing the beginning of the stream: a
// subscription from it backfills every retained event.
var StreamStart = encodeStreamCursor(0)

// HubOptions configure a streaming hub.
type HubOptions struct {
	// Dir, when non-empty, makes the event log durable: batches are
	// appended to JSONL segments under Dir (fsync per publish) and replayed
	// on OpenHub, so acknowledged events survive a portal restart. One hub
	// at a time holds Dir; a second OpenHub on it fails. Empty keeps the
	// log in memory only.
	Dir string
	// SubscriberBuffer is the per-subscriber live-channel capacity (default
	// 256). A subscriber that falls this many events behind its feed is
	// evicted rather than waited on.
	SubscriberBuffer int
	// MaxHistory bounds the in-memory backfill window (default 0 =
	// unlimited). When exceeded, the oldest events are trimmed; cursors
	// pointing before the window are refused with ErrCursorTruncated. The
	// durable log keeps everything regardless — MaxHistory only bounds what
	// a reconnect can be backfilled from memory.
	MaxHistory int
}

// Hub is the portal's streaming core: a cursor-addressable event log with
// live fan-out. Publishers append ordered batches; subscribers receive a
// gapless feed starting from their cursor. All methods are safe for
// concurrent use.
type Hub struct {
	opts HubOptions

	mu     sync.Mutex
	events []StreamEvent // retained history; events[i].Seq == base+int64(i)+1
	base   int64         // seqs 1..base have been trimmed from memory
	last   int64         // seq of the newest published event
	subs   map[*Subscriber]struct{}
	// keys maps a committed batch key to the cursor its commit returned.
	keys   keyMemory[string]
	log    *segLog // nil when memory-only
	closed bool
}

// OpenHub opens a streaming hub, replaying the durable event log under
// opts.Dir when set. Callers own Close.
func OpenHub(opts HubOptions) (*Hub, error) {
	if opts.SubscriberBuffer <= 0 {
		opts.SubscriberBuffer = 256
	}
	h := &Hub{
		opts: opts,
		subs: make(map[*Subscriber]struct{}),
	}
	if opts.Dir != "" {
		log, err := lockSegLog(opts.Dir, "ev-", segmentRotateBytes)
		if err != nil {
			return nil, err
		}
		paths, err := log.open(0)
		if err == nil {
			err = h.replay(paths)
		}
		if err != nil {
			_ = log.close() // already failing; nothing was appended
			return nil, err
		}
		h.log = log
	}
	return h, nil
}

// replay rebuilds history and dedupe memory from the durable log's
// segments. Called before the hub is shared, so it takes no lock.
func (h *Hub) replay(paths []string) error {
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("portal: replay %s: %w", filepath.Base(path), err)
		}
		for line := range bytes.Lines(data) {
			var b streamBatch
			if err := json.Unmarshal(line, &b); err != nil {
				return fmt.Errorf("portal: stream log corrupt: %s: %v", filepath.Base(path), err)
			}
			for _, ev := range b.Events {
				if ev.Seq != h.last+1 {
					return fmt.Errorf("portal: stream log corrupt: event seq %d after %d", ev.Seq, h.last)
				}
				h.last = ev.Seq
				h.events = append(h.events, ev)
			}
			if b.Key != "" {
				h.keys.put(b.Key, encodeStreamCursor(h.last))
			}
		}
	}
	h.trimLocked()
	return nil
}

// LastSeq returns the sequence number of the newest published event (0
// before the first publish). encodeStreamCursor(LastSeq()) is the live
// cursor.
func (h *Hub) LastSeq() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.last
}

// PublishEventsKeyed implements KeyedEventSink: it appends the batch to
// the stream (durably when the hub has a Dir) and fans it out to every
// live subscriber. The batch is ordered and atomic: its events get
// consecutive sequence numbers with nothing interleaved. A batch retried
// under the key it already committed with is answered from dedupe memory —
// the original cursor comes back and no event is appended twice.
func (h *Hub) PublishEventsKeyed(key string, evs []StreamEvent) (string, error) {
	for i, ev := range evs {
		if ev.Experiment == "" {
			return "", fmt.Errorf("%w: event %d: empty experiment", ErrInvalid, i)
		}
		if ev.Kind == "" {
			return "", fmt.Errorf("%w: event %d: empty kind", ErrInvalid, i)
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return "", ErrStreamClosed
	}
	if key != "" {
		if cursor, ok := h.keys.get(key); ok {
			return cursor, nil
		}
	}
	if len(evs) == 0 {
		return encodeStreamCursor(h.last), nil
	}
	// Assign sequence numbers on a private copy: the caller's slice is not
	// mutated, and the history slice never aliases publisher memory.
	batch := make([]StreamEvent, len(evs))
	copy(batch, evs)
	for i := range batch {
		batch[i].Seq = h.last + int64(i) + 1
	}
	if h.log != nil {
		// Durability before visibility: the batch reaches disk before any
		// subscriber (or the publisher's ack) can observe it, so nothing a
		// consumer saw can vanish in a restart.
		line, err := json.Marshal(streamBatch{Key: key, Events: batch})
		if err != nil {
			return "", fmt.Errorf("%w: encode stream batch: %v", ErrInvalid, err)
		}
		if err := h.log.append(append(line, '\n')); err != nil {
			return "", err
		}
	}
	h.last = batch[len(batch)-1].Seq
	h.events = append(h.events, batch...)
	h.trimLocked()
	cursor := encodeStreamCursor(h.last)
	if key != "" {
		h.keys.put(key, cursor)
	}
	h.fanOutLocked(batch)
	return cursor, nil
}

// trimLocked enforces MaxHistory on the in-memory backfill window. Caller
// holds h.mu.
func (h *Hub) trimLocked() {
	max := h.opts.MaxHistory
	if max <= 0 || len(h.events) <= max {
		return
	}
	drop := len(h.events) - max
	h.base += int64(drop)
	h.events = h.events[drop:]
	// Reslicing pins the trimmed prefix in the backing array; reallocate
	// once the dead capacity doubles the live window.
	if cap(h.events) > 2*max {
		h.events = append(make([]StreamEvent, 0, max), h.events...)
	}
}

// fanOutLocked offers the batch to every subscriber, evicting any whose
// buffer is full: the send is non-blocking by construction, so a stalled
// dashboard costs the hub one channel probe, never a wait. Caller holds
// h.mu.
func (h *Hub) fanOutLocked(batch []StreamEvent) {
	var evicted []*Subscriber
	for sub := range h.subs {
		if !sub.offer(batch) {
			evicted = append(evicted, sub)
		}
	}
	for _, sub := range evicted {
		h.dropLocked(sub, ErrSlowSubscriber)
	}
}

// dropLocked removes a subscriber and wakes its consumer with err. Caller
// holds h.mu; safe to call for an already-dropped subscriber.
func (h *Hub) dropLocked(sub *Subscriber, err error) {
	if _, ok := h.subs[sub]; !ok {
		return
	}
	delete(h.subs, sub)
	sub.err = err
	close(sub.done)
}

// SubscribeOptions configure one subscription.
type SubscribeOptions struct {
	// Experiment filters the feed to one experiment; empty receives all.
	Experiment string
	// Cursor resumes strictly after a previously consumed position
	// (Subscriber.Cursor, Watcher.Cursor, or a publish result). Empty
	// subscribes live — only events published after the call. StreamStart
	// backfills from the beginning of retained history.
	Cursor string
	// Buffer overrides the hub's SubscriberBuffer for this subscription.
	Buffer int
}

// Subscribe registers a subscriber. Backfill (everything retained after the
// cursor) and the live feed are spliced under one lock acquisition, so the
// consumer sees every event exactly once even while publishers race the
// subscription. A cursor ahead of the stream is refused with ErrInvalid — a
// watcher that somehow overshot must not silently resume from a position
// that will re-number — and a cursor behind the trimmed window with
// ErrCursorTruncated.
func (h *Hub) Subscribe(opts SubscribeOptions) (*Subscriber, error) {
	from := int64(-1)
	if opts.Cursor != "" {
		seq, err := decodeStreamCursor(opts.Cursor)
		if err != nil {
			return nil, err
		}
		from = seq
	}
	if opts.Buffer <= 0 {
		opts.Buffer = h.opts.SubscriberBuffer
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, ErrStreamClosed
	}
	if from < 0 {
		from = h.last
	}
	if from > h.last {
		return nil, fmt.Errorf("%w: cursor ahead of stream (at %d, stream at %d)", ErrInvalid, from, h.last)
	}
	if from < h.base {
		return nil, fmt.Errorf("%w (cursor at %d, window starts after %d)", ErrCursorTruncated, from, h.base)
	}
	sub := &Subscriber{
		hub:        h,
		experiment: opts.Experiment,
		ch:         make(chan StreamEvent, opts.Buffer),
		done:       make(chan struct{}),
	}
	sub.cursor.Store(from)
	for _, ev := range h.events[from-h.base:] {
		if sub.matches(ev) {
			sub.pending = append(sub.pending, ev)
		}
	}
	h.subs[sub] = struct{}{}
	return sub, nil
}

// Subscribers returns the number of live subscriptions.
func (h *Hub) Subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// Close shuts the hub: every subscriber is woken with ErrStreamClosed,
// further publishes and subscribes are refused, and the durable log is
// flushed and closed. Close is idempotent.
func (h *Hub) Close() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil
	}
	h.closed = true
	for sub := range h.subs {
		h.dropLocked(sub, ErrStreamClosed)
	}
	if h.log != nil {
		// The commit point is append's fsync, but a close that fails still
		// matters to the operator — surface it.
		if err := h.log.close(); err != nil {
			return fmt.Errorf("portal: close stream log: %w", err)
		}
	}
	return nil
}

// Subscriber is one consumer's view of the stream: backfill first, then the
// live feed, gap-free and duplicate-free across the splice. Not safe for
// concurrent Next calls; one consumer goroutine owns it.
type Subscriber struct {
	hub        *Hub
	experiment string
	pending    []StreamEvent // backfill snapshot, consumed before the live channel
	ch         chan StreamEvent
	done       chan struct{}
	err        error // written under hub.mu before done closes
	cursor     atomic.Int64
}

// matches reports whether the subscriber's filter admits ev.
func (s *Subscriber) matches(ev StreamEvent) bool {
	return s.experiment == "" || s.experiment == ev.Experiment
}

// offer enqueues the matching events of a batch without blocking; false
// means the buffer overflowed and the subscriber must be evicted. Called
// under hub.mu.
func (s *Subscriber) offer(batch []StreamEvent) bool {
	for _, ev := range batch {
		if !s.matches(ev) {
			continue
		}
		select {
		case s.ch <- ev:
		default:
			return false
		}
	}
	return true
}

// Next returns the next event, blocking until one arrives, the context
// ends, or the subscription terminates (ErrSlowSubscriber on eviction,
// ErrStreamClosed on hub close or Cancel). Events buffered before an
// eviction are still delivered first — the consumer's cursor stays exact,
// so the reconnect resumes with no gap.
func (s *Subscriber) Next(ctx context.Context) (StreamEvent, error) {
	if ev, ok, err := s.tryNext(); ok || err != nil {
		return ev, err
	}
	select {
	case ev := <-s.ch:
		s.cursor.Store(ev.Seq)
		return ev, nil
	case <-s.done:
		// Deliver anything that raced into the buffer before termination.
		select {
		case ev := <-s.ch:
			s.cursor.Store(ev.Seq)
			return ev, nil
		default:
		}
		return StreamEvent{}, s.err
	case <-ctx.Done():
		return StreamEvent{}, ctx.Err()
	}
}

// tryNext is the non-blocking Next: ok reports whether an event was
// available. err is non-nil only when the subscription has terminated and
// every buffered event has been drained.
func (s *Subscriber) tryNext() (StreamEvent, bool, error) {
	if len(s.pending) > 0 {
		ev := s.pending[0]
		s.pending = s.pending[1:]
		if len(s.pending) == 0 {
			s.pending = nil // release the backfill snapshot
		}
		s.cursor.Store(ev.Seq)
		return ev, true, nil
	}
	select {
	case ev := <-s.ch:
		s.cursor.Store(ev.Seq)
		return ev, true, nil
	default:
	}
	select {
	case <-s.done:
		return StreamEvent{}, false, s.err
	default:
		return StreamEvent{}, false, nil
	}
}

// Cursor returns the opaque resume position after the last event Next
// delivered (or the subscription's starting position before the first).
// Passing it to a new subscription continues the stream with no gap and no
// duplicate.
func (s *Subscriber) Cursor() string {
	return encodeStreamCursor(s.cursor.Load())
}

// Cancel terminates the subscription; a blocked Next returns
// ErrStreamClosed. Idempotent, and safe to race the hub's own eviction.
func (s *Subscriber) Cancel() {
	s.hub.mu.Lock()
	s.hub.dropLocked(s, ErrStreamClosed)
	s.hub.mu.Unlock()
}

// streamBatch is one committed publish: a JSONL line in the stream log.
// Recording the idempotency key beside the events lets replay rebuild the
// dedupe memory, so a publisher retrying across a portal restart still
// cannot double-append.
type streamBatch struct {
	Key    string        `json:"key,omitempty"`
	Events []StreamEvent `json:"events"`
}
