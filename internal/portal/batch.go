package portal

import (
	"context"
	"fmt"
)

// Buffer is an Ingestor that queues records in memory and forwards them to
// a BatchIngestor in one Flush call — one store lock acquisition, or one
// HTTP round-trip for a remote portal. A fleet campaign publishes through a
// Buffer so its whole run lands on the portal in a single batch.
//
// Ingest on a Buffer cannot know the destination-assigned ID yet, so it
// returns the record's own ID when set and a "buffered-N" placeholder
// otherwise; anything that captures Ingest's ID (e.g. a publish flow's
// ingest step) sees the placeholder, not the real ID. Flush returns the
// destination-assigned IDs in buffered order — callers who need actionable
// record IDs must take them from there (the fleet exposes them as
// CampaignResult.RecordIDs).
//
// Retry safety: a failed Flush keeps its records and retries them as the
// same batch. When the destination supports idempotency keys
// (KeyedBatchIngestor — the Store in process, the Client over HTTP), the
// batch is pinned to one key at first Flush and resent under it, so a
// flush whose response was lost after the destination committed (the
// classic partial HTTP failure) is answered from the destination's dedupe
// memory instead of double-ingesting. Records ingested while a retry is in
// flight queue up for the next batch rather than mutating the pinned one.
type Buffer struct {
	box outbox[Record]
}

// NewBuffer returns an empty buffer draining into dest.
func NewBuffer(dest BatchIngestor) *Buffer {
	send := func(_ string, recs []Record) ([]string, error) { return dest.IngestBatch(recs) }
	if keyed, ok := dest.(KeyedBatchIngestor); ok {
		send = keyed.IngestBatchKeyed
	}
	return &Buffer{box: outbox[Record]{send: send}}
}

// Ingest implements Ingestor by queueing the record locally.
func (b *Buffer) Ingest(rec Record) (string, error) {
	if rec.Experiment == "" {
		return "", fmt.Errorf("%w: missing experiment name", ErrInvalid)
	}
	inFlight, queued := b.box.push(rec)
	if rec.ID != "" {
		return rec.ID, nil
	}
	return fmt.Sprintf("buffered-%d", inFlight+queued), nil
}

// Len reports the number of records waiting to be flushed.
func (b *Buffer) Len() int {
	inFlight, queued := b.box.push()
	return inFlight + queued
}

// Flush makes one attempt to send every buffered record to the destination
// and returns the assigned IDs, in buffered order — including those of
// batches that landed during an earlier, failed Flush. On error the
// records stay buffered so a retried Flush loses nothing — and, for keyed
// destinations, cannot ingest twice. Flushing an empty buffer is a no-op.
func (b *Buffer) Flush() ([]string, error) { return b.box.flush() }

// Deliver is Flush with a retry budget: a failed flush is retried twice,
// 500ms apart in real time, so one transient portal hiccup does not lose
// the records. It stops early on a rejected batch (ErrInvalid) or once ctx
// is done.
func (b *Buffer) Deliver(ctx context.Context) ([]string, error) {
	return b.box.deliver(ctx, deliverRetries, deliverPause)
}
