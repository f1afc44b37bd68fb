package portal

import (
	"context"
	"fmt"
	"slices"
	"time"
)

// maxPendingEvents bounds an EventPublisher's unsent queue. Publishes past
// it are dropped and counted rather than blocking the experiment.
const maxPendingEvents = 1 << 16

// EventPublisher is the batching, retrying front of the streaming pipeline:
// the fleet publishes one event at a time from inside the hot campaign
// loop, and the publisher coalesces them into keyed batches shipped to a
// downstream KeyedEventSink (usually a portal Client) from its own
// goroutine. PublishEvents never blocks and never touches the network — a
// slow or down portal costs the experiment nothing but publisher memory.
//
// Delivery is at-least-once upstream and exactly-once downstream: a batch
// that fails to send is retained and retried under the same idempotency
// key (through the same outbox as Buffer), so a portal that committed the
// batch but lost the ack answers the retry from dedupe memory instead of
// double-appending. Events are only dropped when the
// bounded pending queue overflows, when the sink rejects a batch
// (ErrInvalid), or when they arrive after Close, and every drop is counted
// (Dropped) — never silent.
//
// The publisher lives in the portal package on purpose: its timers and
// retry pacing are wall-clock against an external service, which the
// wallclock archlint check forbids inside the virtual-time packages
// (internal/fleet included) but permits here.
type EventPublisher struct {
	box  outbox[StreamEvent]
	opts PublisherOptions
	wake chan struct{}
	stop context.CancelFunc // stops the loop; safe to call twice
	done chan struct{}
}

// PublisherOptions configure an EventPublisher.
type PublisherOptions struct {
	// MaxBatch bounds events per POST (default 256).
	MaxBatch int
	// FlushInterval is the background flush cadence (default 200ms); a full
	// MaxBatch flushes immediately regardless.
	FlushInterval time.Duration
	// CloseRetries is how many times Close retries the final drain beyond
	// its first attempt (default 2), pausing CloseRetryDelay between tries.
	CloseRetries int
	// CloseRetryDelay paces Close's retries (default 500ms).
	CloseRetryDelay time.Duration
}

func (o *PublisherOptions) setDefaults() {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 256
	}
	if o.FlushInterval <= 0 {
		o.FlushInterval = 200 * time.Millisecond
	}
	if o.CloseRetries == 0 {
		o.CloseRetries = deliverRetries // a negative count retries nothing
	}
	if o.CloseRetryDelay <= 0 {
		o.CloseRetryDelay = deliverPause
	}
}

// NewEventPublisher starts a publisher draining into dest. Callers own
// Close, which performs the final flush.
func NewEventPublisher(dest KeyedEventSink, opts PublisherOptions) *EventPublisher {
	opts.setDefaults()
	ctx, stop := context.WithCancel(context.Background())
	p := &EventPublisher{
		box: outbox[StreamEvent]{
			send: func(key string, evs []StreamEvent) ([]string, error) {
				_, err := dest.PublishEventsKeyed(key, evs)
				return nil, err
			},
			maxBatch:     opts.MaxBatch,
			maxPending:   maxPendingEvents,
			dropRejected: true,
		},
		opts: opts,
		wake: make(chan struct{}, 1),
		stop: stop,
		done: make(chan struct{}),
	}
	go p.loop(ctx)
	return p
}

// PublishEvents implements EventSink by enqueueing asynchronously: the
// returned cursor is empty (acknowledgement happens on the background
// flush) and the error always nil — losses are reported via Dropped and
// delivery failures via Close. Events carrying no PubNanos are queued
// stamped with the wall clock now (the caller's slice is left as is), so
// downstream subscribers can measure fan-out latency from the moment the
// event left the experiment.
func (p *EventPublisher) PublishEvents(evs []StreamEvent) (string, error) {
	stamped := slices.Clone(evs)
	now := time.Now().UnixNano()
	for i := range stamped {
		if stamped[i].PubNanos == 0 {
			stamped[i].PubNanos = now
		}
	}
	if _, queued := p.box.push(stamped...); queued >= p.opts.MaxBatch {
		select {
		case p.wake <- struct{}{}:
		default:
		}
	}
	return "", nil
}

// Dropped returns how many events were discarded: queue overflow, batches
// the sink rejected, and publishes after Close.
func (p *EventPublisher) Dropped() int64 { return p.box.dropped.Load() }

// Close stops the background loop and drains the queue, retrying the final
// flush a bounded number of times — a portal restart mid-shutdown should
// not cost the run its event tail. The returned error is the last flush
// failure when undelivered events remain. Closing twice is harmless.
func (p *EventPublisher) Close() error {
	p.box.close()
	p.stop()
	<-p.done
	if _, err := p.box.deliver(context.Background(), p.opts.CloseRetries, p.opts.CloseRetryDelay); err != nil {
		return fmt.Errorf("portal: event publisher close: %w", err)
	}
	return nil
}

func (p *EventPublisher) loop(ctx context.Context) {
	defer close(p.done)
	t := time.NewTicker(p.opts.FlushInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		case <-p.wake:
		}
		_, _ = p.box.flush() // a failed batch stays frozen for the next pass
	}
}
