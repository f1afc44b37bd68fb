package portal

import (
	"context"
	"fmt"
)

// Buffer is an Ingestor that queues records in memory and forwards them to
// its destination in one Deliver call — one store lock acquisition, or one
// HTTP round-trip for a remote portal. A fleet campaign publishes through a
// Buffer so its whole run lands on the portal in a single batch.
//
// IngestBatchKeyed on a Buffer cannot know the destination-assigned IDs
// yet, so it returns each record's own ID when set and a "buffered-N"
// placeholder otherwise; anything that captures those IDs (e.g. a publish
// flow's ingest step) sees the placeholder, not the real ID. Deliver
// returns the destination-assigned IDs in buffered order — callers who need
// actionable record IDs must take them from there (the fleet exposes them
// as CampaignResult.RecordIDs).
//
// Retry safety: the caller's key is not forwarded; the Buffer keys its own
// batches instead. A batch is pinned to one fresh key when first sent and
// resent under it after a failure, so a send whose response was lost after
// the destination committed (the classic partial HTTP failure) is answered
// from the destination's dedupe memory instead of double-ingesting.
// Records queued while a retry is pending wait for the next batch rather
// than mutating the pinned one. Queueing itself fails only on a rejected
// record, before anything is queued, so a caller's retry cannot queue twice.
type Buffer struct {
	box outbox[Record]
}

// NewBuffer returns an empty buffer draining into dest.
func NewBuffer(dest Ingestor) *Buffer {
	return &Buffer{box: outbox[Record]{send: dest.IngestBatchKeyed}}
}

// IngestBatchKeyed implements Ingestor by queueing recs locally.
func (b *Buffer) IngestBatchKeyed(_ string, recs []Record) ([]string, error) {
	for i, rec := range recs {
		if rec.Experiment == "" {
			return nil, fmt.Errorf("%w: record %d missing experiment name", ErrInvalid, i)
		}
	}
	inFlight, queued := b.box.push(recs...)
	ids := make([]string, len(recs))
	for i, rec := range recs {
		ids[i] = rec.ID
		if ids[i] == "" {
			ids[i] = fmt.Sprintf("buffered-%d", inFlight+queued-len(recs)+i+1)
		}
	}
	return ids, nil
}

// Deliver sends every buffered record to the destination and returns the
// assigned IDs, in buffered order — including those of batches that landed
// during an earlier, failed Deliver. A failed send is retried twice, 500ms
// apart in real time, so one transient portal hiccup does not lose the
// records; it stops early on a rejected batch (ErrInvalid) or once ctx is
// done. On error the records stay buffered, so a later Deliver loses
// nothing and cannot ingest twice. Delivering an empty buffer is a no-op.
func (b *Buffer) Deliver(ctx context.Context) ([]string, error) {
	return b.box.deliver(ctx, deliverRetries, deliverPause)
}
