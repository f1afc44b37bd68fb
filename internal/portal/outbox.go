package portal

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Publish retry pacing shared by Buffer.Deliver and EventPublisher.Close: a
// failed delivery is retried this many times, this far apart in real time
// (the portal is an external service; microsecond retries cannot outlast
// even the briefest outage).
const (
	deliverRetries = 2
	deliverPause   = 500 * time.Millisecond
)

// outbox is the keyed delivery queue behind Buffer (records) and
// EventPublisher (events). flush sends the queue in batches, each frozen
// under one idempotency key until acknowledged: a failed batch is resent
// verbatim under its key, so a destination that committed it but lost the
// ack answers the retry from dedupe memory instead of ingesting it twice.
// Items pushed meanwhile queue behind it for a fresh key.
type outbox[T any] struct {
	send         func(key string, batch []T) (ids []string, err error)
	maxBatch     int  // items per send; 0 sends the whole queue
	maxPending   int  // queue bound, overflow counted as dropped; 0: none
	dropRejected bool // drop and count an ErrInvalid batch instead of keeping it frozen

	mu     sync.Mutex // guards the four fields below; never held across send
	queue  []T
	frozen []T
	key    string
	closed bool

	flushMu sync.Mutex // serializes flushes; guards acked
	acked   []string   // IDs of batches delivered since the last successful flush
	dropped atomic.Int64
}

// push queues items, counting those past maxPending or after close as
// dropped, and returns the in-flight and queued sizes afterwards (so
// pushing nothing just reports them).
func (o *outbox[T]) push(items ...T) (inFlight, queued int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, it := range items {
		if o.closed || (o.maxPending > 0 && len(o.queue) >= o.maxPending) {
			o.dropped.Add(1)
			continue
		}
		o.queue = append(o.queue, it)
	}
	return len(o.frozen), len(o.queue)
}

// close turns every later push into a drop.
func (o *outbox[T]) close() {
	o.mu.Lock()
	o.closed = true
	o.mu.Unlock()
}

// flush makes one delivery pass: the frozen batch, then the queue in
// maxBatch slices. It stops at the first failure, which stays frozen for
// the next pass. On success it returns the IDs delivered since the last
// successful flush, in queue order.
func (o *outbox[T]) flush() ([]string, error) {
	o.flushMu.Lock()
	defer o.flushMu.Unlock()
	for {
		o.mu.Lock()
		if len(o.frozen) == 0 && len(o.queue) > 0 {
			n := len(o.queue)
			if o.maxBatch > 0 {
				n = min(n, o.maxBatch)
			}
			o.frozen, o.queue, o.key = o.queue[:n:n], o.queue[n:], newBatchKey()
			if len(o.queue) == 0 {
				o.queue = nil // release the drained backing array
			}
		}
		batch, key := o.frozen, o.key
		o.mu.Unlock()
		if len(batch) == 0 {
			ids := o.acked
			o.acked = nil
			return ids, nil
		}
		ids, err := o.send(key, batch)
		if err != nil {
			if !o.dropRejected || !errors.Is(err, ErrInvalid) {
				return nil, err
			}
			// Resending a rejected batch can only fail the same way and
			// would wedge the queue behind it: count the loss, move on.
			o.dropped.Add(int64(len(batch)))
		}
		o.acked = append(o.acked, ids...)
		o.mu.Lock()
		o.frozen, o.key = nil, ""
		o.mu.Unlock()
	}
}

// deliver flushes, retrying a failure up to retries more times, pause
// apart. It stops early on a rejected batch (ErrInvalid: resending is
// hopeless) or once ctx is done, and returns the last flush's result.
func (o *outbox[T]) deliver(ctx context.Context, retries int, pause time.Duration) ([]string, error) {
	ids, err := o.flush()
	for ; retries > 0 && err != nil && !errors.Is(err, ErrInvalid) && ctx.Err() == nil; retries-- {
		select {
		case <-ctx.Done():
			return nil, err
		case <-time.After(pause):
		}
		ids, err = o.flush()
	}
	return ids, err
}

// newBatchKey returns a fresh idempotency key; empty (disabling dedupe for
// that batch) only if the system's randomness source fails.
func newBatchKey() string {
	var buf [12]byte
	if _, err := rand.Read(buf[:]); err != nil {
		return ""
	}
	return "buf-" + hex.EncodeToString(buf[:])
}
