// Package portal reimplements the role of the ALCF Community Data Co-Op
// (ACDC) portal in the paper's pipeline: a searchable store that the
// color-picker application publishes each run's data to — "the colors
// produced, the timing of each step, the scoring results from the solver,
// and the raw plate images for quality control" — with the summary and
// per-run detail views shown in the paper's Figure 3.
//
// # Store
//
// The central type is [Store], a searchable record archive with two
// construction modes:
//
//   - [NewStore] builds a purely in-memory store: zero dependencies, dies
//     with the process. It remains the default for tests, examples, and
//     fleet runs that only need a per-run scratch portal.
//   - [OpenStore] builds a durable store backed by a data directory: every
//     ingested record is appended to a JSON segment log and its binary
//     attachments are written to separate blob files, and on the next
//     OpenStore the log is replayed to rebuild the store. A torn final
//     record (the process died mid-append) is dropped on replay; everything
//     before it survives. [OpenStoreWith] adds replay and compaction
//     tuning via [Options].
//
// # Concurrency
//
// The store is built for the fleet's traffic shape: many workcells
// publishing while operators search. Reads ([Store.SearchPage],
// [Store.Get], [Store.Summarize], [Store.Experiments], [Store.Len]) serve
// from an immutable copy-on-write snapshot loaded through a single atomic
// pointer — they take no lock, never block behind an ingest or each other,
// and never observe a half-published batch: a batch becomes visible in one
// atomic snapshot swap or not at all. Writers serialize among themselves;
// summaries are cached per snapshot, so the hot index page costs one map
// lookup between ingests.
//
// # Queries
//
// [Store.Search] returns matching records oldest-first. For bounded result
// pages use [Store.SearchPage], which honors [Query].Limit and returns an
// opaque resume cursor; passing that cursor back in [Query].Cursor continues
// the listing where the previous page stopped, stable under concurrent
// ingest — and under compaction and restarts, because a record's ingest
// slot (half of the cursor's sort key) is preserved by both.
//
// # Ingest
//
// [Ingestor] is the one record write seam, and every write is a keyed
// batch: [Store.IngestBatchKeyed] validates and appends many records under
// one lock acquisition (and, over HTTP, one round-trip), and a batch
// retried under the same key after a lost response is answered with the
// original commit's IDs instead of being ingested twice — a guarantee that
// rides the segment log and so survives restarts. [NewBatchKey] mints the
// keys. [Buffer] is the one record publisher: it queues records in memory
// and forwards them to an Ingestor in batches it keys itself on
// [Buffer.Deliver] (paced retries) — the shape an application run and a
// fleet summary use to publish at once, safely retryable end to end.
// [EventPublisher] is the same keyed outbox for stream events, drained by a
// background goroutine.
//
// # Compaction and replay
//
// The segment log only grows; [Store.Compact] (or the automatic trigger
// configured by [Options].AutoCompactSegments) rewrites every sealed
// segment into a single snapshot segment via write-new-then-atomic-rename,
// crash-safe at every boundary, while ingest and reads continue
// undisturbed. Replay on OpenStore decodes the snapshot and tail segments
// on a worker pool and bulk-builds the indexes, so restart time on a large
// archive is bounded by cores, not by archive age. See docs/PORTAL.md for
// the file-level guarantees.
//
// # HTTP
//
// [Serve] exposes the store over HTTP (keyed batch ingest, search with
// cursors, record fetch, experiment summaries, and the Figure 3 HTML
// index) and [Client] is the matching remote [Ingestor]. Records travel
// with their attachments as one multipart/form-data body, each attachment
// a raw part, in both directions. See docs/PORTAL.md for the wire-level operator guide; the
// repo's benchmark (perfbench, `portal` and `distributed` workloads)
// measures this package's latency and throughput under load.
package portal
