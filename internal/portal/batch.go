package portal

import "context"

// Buffer queues records in memory and forwards them to its destination in
// one Deliver call — one store lock acquisition, or one HTTP round-trip for
// a remote portal. It is the repo's one record publisher: an application
// run adds each iteration's record and delivers the whole run at its end,
// and a fleet delivers its summary the same way.
//
// Retry safety: a batch is pinned to one fresh idempotency key when first
// sent and resent under it after a failure, so a send whose response was
// lost after the destination committed (the classic partial HTTP failure)
// is answered from the destination's dedupe memory instead of
// double-ingesting. Records added while a retry is pending wait for the
// next batch rather than mutating the pinned one.
type Buffer struct {
	box outbox[Record]
}

// NewBuffer returns an empty buffer draining into dest.
func NewBuffer(dest Ingestor) *Buffer {
	return &Buffer{box: outbox[Record]{send: dest.IngestBatchKeyed}}
}

// Add queues recs for the next Deliver. It rejects the call with ErrInvalid,
// queueing none of recs, if any record lacks an experiment name or carries
// an ID (the destination assigns IDs).
func (b *Buffer) Add(recs ...Record) error {
	for i, rec := range recs {
		if err := checkNew(i, rec); err != nil {
			return err
		}
	}
	b.box.push(recs...)
	return nil
}

// Deliver sends every buffered record to the destination and returns the
// assigned IDs, in buffered order — including those of batches that landed
// during an earlier, failed Deliver. A failed send is retried twice, 500ms
// apart in real time, so one transient portal hiccup does not lose the
// records; it stops early on a rejected batch (ErrInvalid) or once ctx is
// done. On error the records stay buffered, so a later Deliver loses
// nothing and cannot ingest twice. Delivering an empty buffer is a no-op.
func (b *Buffer) Deliver(ctx context.Context) ([]string, error) {
	return b.box.deliver(ctx)
}
