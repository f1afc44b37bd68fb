package portal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// On-disk layout under the data directory:
//
//	<dir>/segments/LOCK               the single-writer lock (see seglog.go)
//	<dir>/segments/snap-000005.snap   compacted snapshot of segments 1..5:
//	                                  the covered records in original ingest
//	                                  order, in the binary format described
//	                                  in snapcodec.go
//	<dir>/segments/seg-000006.jsonl   append-only record log, one JSON
//	                                  object per line, rotated by size
//	<dir>/blobs/b-00000042.bin        attachment bodies, one file each,
//	                                  referenced by name from segment lines
//
// The segment files are a segLog (seglog.go), which owns locking, tail
// repair, the append commit and rotation; the store adds blobs, snapshots,
// compaction, parallel replay and batch keys on top. A record becomes
// durable when its segment line is written and fsynced; its blobs are
// written (and synced) first, so a line never references a missing blob.
// On OpenStore the snapshot (if any) and the tail segments are replayed
// oldest-first — decoded on a worker pool in chunks, merged in ingest
// order — so restart time is bounded by cores, not archive age.
// Compaction (see compact.go) replaces sealed segments with a fresh
// snapshot via write-new-then-atomic-rename; leftovers of a compaction
// interrupted by a crash (a stale .tmp, segments already covered by the
// newest snapshot, an older snapshot) are swept on the next open, once the
// lock is held.

const (
	segmentDirName = "segments"
	blobDirName    = "blobs"
)

// segmentRotateBytes rotates the log so no single replay parse or truncation
// repair has to handle an unbounded file. A variable so rotation tests can
// shrink it.
var segmentRotateBytes int64 = 4 << 20

// replayChunkBytes is the decode unit for parallel replay: files are split
// at line boundaries into chunks of roughly this size, so even a single
// large snapshot segment decodes across every core. A variable for tests.
var replayChunkBytes = 512 << 10

// replayPool sizes the decode worker pool for replay on open; 0 uses
// GOMAXPROCS. A variable so tests can compare sequential and parallel
// replay.
var replayPool int

// Options tunes OpenStoreWith. The zero value matches OpenStore: no
// automatic compaction.
type Options struct {
	// AutoCompactSegments, when positive, starts a background compaction
	// whenever more than this many sealed segments have accumulated past
	// the newest snapshot. 0 disables automatic compaction; Store.Compact
	// can still be called explicitly.
	AutoCompactSegments int
}

// segRecord is the persisted form of one record: Fields inline, attachment
// bodies replaced by blob references. Batch carries the idempotency key of
// the batch that committed the record, so dedupe survives a restart.
type segRecord struct {
	ID         string             `json:"id"`
	Experiment string             `json:"experiment"`
	Run        int                `json:"run,omitempty"`
	Time       time.Time          `json:"time"`
	Fields     map[string]any     `json:"fields,omitempty"`
	Blobs      map[string]blobRef `json:"blobs,omitempty"`
	Batch      string             `json:"batch,omitempty"`
}

// snapHeader is a compacted snapshot segment's header: the record count
// (replay preallocates from it) and the blob-number watermark (replay skips
// the per-record blob scan for covered records). Serialized in the binary
// layout described in snapcodec.go.
type snapHeader struct {
	Snap  bool
	Count int
	Blob  int
}

// blobRef locates one attachment's body in the blob directory.
type blobRef struct {
	File string `json:"file"`
	Size int    `json:"size"`
}

func segmentPath(dir string, seq int) string {
	return segFile(filepath.Join(dir, segmentDirName), "seg-", seq)
}

func snapPath(dir string, seq int) string {
	return filepath.Join(dir, segmentDirName, fmt.Sprintf("snap-%06d.snap", seq))
}

// numberedFile extracts the sequence number from a prefix-NNNNNN-suffix
// file name, replacing the fmt.Sscanf replay hot path (reflection-heavy at
// one call per record) with a plain integer parse.
func numberedFile(base, prefix, suffix string) (int, bool) {
	mid, ok := strings.CutPrefix(base, prefix)
	if !ok {
		return 0, false
	}
	if mid, ok = strings.CutSuffix(mid, suffix); !ok {
		return 0, false
	}
	n, err := strconv.Atoi(mid)
	if err != nil || n <= 0 {
		return 0, false
	}
	return n, true
}

// OpenStore opens (creating if needed) a durable store rooted at dir,
// replaying its segment log into fresh in-memory indexes. A torn final
// record left by a crash mid-append is dropped and truncated away; any
// other corruption is reported as an error rather than silently skipped.
// The caller owns the returned store and should Close it to flush the log.
func OpenStore(dir string) (*Store, error) {
	return OpenStoreWith(dir, Options{})
}

// OpenStoreWith is OpenStore with compaction tuning.
func OpenStoreWith(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, blobDirName), 0o755); err != nil {
		return nil, fmt.Errorf("portal: open store: %w", err)
	}
	segDir := filepath.Join(dir, segmentDirName)
	log, err := lockSegLog(segDir, "seg-", segmentRotateBytes)
	if err != nil {
		return nil, err
	}
	opened := false
	defer func() {
		if !opened {
			_ = log.close() // already failing; nothing was appended
		}
	}()
	snapN, err := sweepSegmentDir(segDir)
	if err != nil {
		return nil, err
	}
	paths, err := log.open(snapN)
	if err != nil {
		return nil, err
	}
	s, blobW, err := replayArchive(dir, snapN, paths, replayPool)
	if err != nil {
		return nil, err
	}
	s.dir, s.blob, s.compacted = dir, blobW, snapN
	s.log = log
	s.autoCompact = opts.AutoCompactSegments
	opened = true
	return s, nil
}

// sweepSegmentDir removes leftovers of an interrupted compaction and
// returns the newest snapshot number (0 if none). Removed: stale *.tmp
// stages, older snapshots superseded by the newest one, and segments the
// newest snapshot already covers (a crash between rename and cleanup leaves
// both; replaying both would abort on IDs that are not their position). The
// caller holds the directory's lock.
func sweepSegmentDir(segDir string) (snapN int, err error) {
	names, err := filepath.Glob(filepath.Join(segDir, "*"))
	if err != nil {
		return 0, fmt.Errorf("portal: open store: %w", err)
	}
	for _, name := range names {
		if n, ok := numberedFile(filepath.Base(name), "snap-", ".snap"); ok && n > snapN {
			snapN = n
		}
	}
	removed := false
	for _, name := range names {
		base := filepath.Base(name)
		drop := strings.HasSuffix(base, ".tmp")
		if n, ok := numberedFile(base, "snap-", ".snap"); ok && n < snapN {
			drop = true
		}
		if n, ok := numberedFile(base, "seg-", ".jsonl"); ok && n <= snapN {
			drop = true
		}
		if drop {
			if err := os.Remove(name); err != nil {
				return 0, fmt.Errorf("portal: sweep %s: %w", base, err)
			}
			removed = true
		}
	}
	if removed {
		if err := syncDir(segDir); err != nil {
			return 0, fmt.Errorf("portal: sweep segment dir: %w", err)
		}
	}
	return snapN, nil
}

// fileDecode is the decoded contents of one JSONL segment file.
type fileDecode struct {
	path string
	recs []segRecord
	// bad marks an undecodable line at file offset badOff.
	bad    bool
	badOff int64
}

// decodeChunk is one parallel decode unit: a line-aligned byte range of one
// segment file.
type decodeChunk struct {
	file int
	base int64
	data []byte
}

type chunkResult struct {
	recs   []segRecord
	bad    bool
	badOff int64
}

// decodeSegmentFiles reads and decodes the given JSONL segments on a worker
// pool. Chunks are split at line boundaries, so one big segment still
// decodes across all workers; results are reassembled in file/offset order
// so the caller sees exactly the sequential decode's output.
func decodeSegmentFiles(paths []string, workers int) ([]fileDecode, error) {
	decs := make([]fileDecode, len(paths))
	var chunks []decodeChunk
	for i, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("portal: replay %s: %w", filepath.Base(path), err)
		}
		decs[i] = fileDecode{path: path}
		for base := 0; base < len(data); {
			end := base + replayChunkBytes
			if end >= len(data) {
				end = len(data)
			} else if nl := bytes.IndexByte(data[end:], '\n'); nl >= 0 {
				end += nl + 1
			} else {
				end = len(data)
			}
			chunks = append(chunks, decodeChunk{file: i, base: int64(base), data: data[base:end]})
			base = end
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(chunks) {
		workers = len(chunks)
	}
	results := make([]chunkResult, len(chunks))
	if workers <= 1 {
		for i, c := range chunks {
			results[i] = decodeOneChunk(c)
		}
	} else {
		work := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range work {
					results[i] = decodeOneChunk(chunks[i])
				}
			}()
		}
		for i := range chunks {
			work <- i
		}
		close(work)
		wg.Wait()
	}
	for i, c := range chunks {
		res := results[i]
		fd := &decs[c.file]
		if fd.bad {
			continue // everything past the first bad line is unreachable
		}
		fd.recs = append(fd.recs, res.recs...)
		if res.bad {
			fd.bad = true
			fd.badOff = res.badOff
		}
	}
	return decs, nil
}

// decodeOneChunk parses one chunk's lines. A line that fails to parse (or
// parses without an experiment name) is corruption and stops the chunk:
// tail repair already removed the one legal tear.
func decodeOneChunk(c decodeChunk) chunkResult {
	var res chunkResult
	off := c.base
	for line := range bytes.Lines(c.data) {
		var sr segRecord
		if err := json.Unmarshal(line, &sr); err != nil || sr.Experiment == "" {
			res.bad = true
			res.badOff = off
			return res
		}
		res.recs = append(res.recs, sr)
		off += int64(len(line))
	}
	return res
}

// replayArchive decodes the snapshot (binary, chunk-parallel) and the tail
// segments (JSONL, chunk-parallel) and builds a store with bulk-constructed
// indexes: one (time, slot) sort over all records instead of a per-record
// sorted insert, with per-experiment indexes derived from the global order
// in one pass. Every record's ID must be its position in the archive. It
// also returns the blob watermark: snapshot records skip the per-record
// blob scan, as their header carries it.
func replayArchive(dir string, snapN int, paths []string, workers int) (*Store, int, error) {
	s := NewStore()
	blobW := 0
	var snapRecs []segRecord
	if snapN > 0 {
		data, err := os.ReadFile(snapPath(dir, snapN))
		if err != nil {
			return nil, 0, fmt.Errorf("portal: replay snapshot: %w", err)
		}
		head, recs, err := snapDecode(data, workers)
		if err != nil {
			// A snapshot is published whole by an atomic rename; damage here
			// is corruption, never a torn write.
			return nil, 0, fmt.Errorf("portal: corrupt snapshot %s: %v",
				filepath.Base(snapPath(dir, snapN)), err)
		}
		blobW = head.Blob
		snapRecs = recs
	}
	decs, err := decodeSegmentFiles(paths, workers)
	if err != nil {
		return nil, 0, err
	}
	total := len(snapRecs)
	for _, fd := range decs {
		total += len(fd.recs)
	}
	entries := make([]entry, 0, total)
	var lastBatch string
	addRec := func(sr *segRecord, file string, scanBlobs bool) error {
		slot := len(entries)
		if sr.ID != recordID(slot) {
			return fmt.Errorf("portal: record id %q in %s is not its position %s",
				sr.ID, file, recordID(slot))
		}
		rec := Record{ID: sr.ID, Experiment: sr.Experiment, Run: sr.Run, Time: sr.Time, Fields: sr.Fields}
		if len(sr.Blobs) > 0 {
			rec.sizes = make(map[string]int, len(sr.Blobs))
			for bname, ref := range sr.Blobs {
				rec.sizes[bname] = ref.Size
				if scanBlobs {
					if n, ok := numberedFile(ref.File, "b-", ".bin"); ok && n > blobW {
						blobW = n
					}
				}
			}
		}
		entries = append(entries, entry{rec: rec, blobs: sr.Blobs})
		// Rebuild the idempotency-key memory from contiguous key runs (the
		// latest run of a key wins, matching the in-memory FIFO).
		if sr.Batch != "" {
			span := slotSpan{first: slot}
			if sr.Batch == lastBatch {
				span, _ = s.batches.get(sr.Batch)
			}
			span.n++
			s.batches.put(sr.Batch, span)
		}
		lastBatch = sr.Batch
		return nil
	}
	snapBase := ""
	if snapN > 0 {
		snapBase = filepath.Base(snapPath(dir, snapN))
	}
	for ri := range snapRecs {
		if err := addRec(&snapRecs[ri], snapBase, false); err != nil {
			return nil, 0, err
		}
	}
	for fi := range decs {
		fd := &decs[fi]
		if fd.bad {
			return nil, 0, fmt.Errorf("portal: corrupt record in %s at offset %d",
				filepath.Base(fd.path), fd.badOff)
		}
		for ri := range fd.recs {
			if err := addRec(&fd.recs[ri], filepath.Base(fd.path), true); err != nil {
				return nil, 0, err
			}
		}
	}
	sn := &snapshot{entries: entries}
	byTime := make([]int, len(entries))
	for i := range byTime {
		byTime[i] = i
	}
	// Records usually arrive in time order; skip the sort when they did.
	if !sort.SliceIsSorted(byTime, func(i, j int) bool { return sn.less(byTime[i], byTime[j]) }) {
		sort.Slice(byTime, func(i, j int) bool { return sn.less(byTime[i], byTime[j]) })
	}
	sn.byTime = byTime
	sn.byExp = make(map[string][]int)
	for _, slot := range byTime {
		exp := entries[slot].rec.Experiment
		sn.byExp[exp] = append(sn.byExp[exp], slot)
	}
	s.snap.Store(sn)
	return s, blobW, nil
}

// writeBlobs persists one record's attachments, returning their references.
// Callers hold the store lock, which serializes blob numbering.
func (s *Store) writeBlobs(files map[string][]byte) (map[string]blobRef, error) {
	if len(files) == 0 {
		return nil, nil
	}
	refs := make(map[string]blobRef, len(files))
	// Deterministic blob numbering for a record's attachments.
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s.blob++
		file := fmt.Sprintf("b-%08d.bin", s.blob)
		if err := writeFileSync(filepath.Join(s.dir, blobDirName, file), files[name]); err != nil {
			return nil, fmt.Errorf("portal: write blob: %w", err)
		}
		refs[name] = blobRef{File: file, Size: len(files[name])}
	}
	return refs, nil
}

// syncDir fsyncs a directory so freshly created files' entries survive a
// power loss. Without it a blob (or rotated segment) could lose its name
// while the already-synced segment line referencing it survives.
func syncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeFileSync is os.WriteFile plus an fsync: blob bodies must reach disk
// before the segment line referencing them does, or a power loss could
// leave a durable record pointing at lost attachment bytes.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// readBlobs loads a record's attachment bodies from the data dir rooted at
// dir.
func readBlobs(dir string, refs map[string]blobRef) (map[string][]byte, error) {
	files := make(map[string][]byte, len(refs))
	for name, ref := range refs {
		data, err := os.ReadFile(filepath.Join(dir, blobDirName, ref.File))
		if err != nil {
			return nil, fmt.Errorf("load attachment %q: %w", name, err)
		}
		files[name] = data
	}
	return files, nil
}

// encodeRecords renders a batch bound for the slots from first on as segment
// lines. Every line is encoded before any byte reaches the log, so an
// unmarshalable record (say a NaN field value) rejects the batch without
// touching it.
func encodeRecords(recs []Record, first int, blobs []map[string]blobRef, batchKey string) ([]byte, error) {
	var batch []byte
	for i, rec := range recs {
		sr := segRecord{ID: recordID(first + i), Experiment: rec.Experiment, Run: rec.Run, Time: rec.Time,
			Fields: rec.Fields, Blobs: blobs[i], Batch: batchKey}
		line, err := json.Marshal(sr)
		if err != nil {
			// The record itself is unencodable (a NaN field, say): that is
			// the submitter's ErrInvalid, not a store fault — retrying or
			// resending the identical batch can never succeed.
			return nil, fmt.Errorf("%w: encode record %s: %v", ErrInvalid, sr.ID, err)
		}
		batch = append(batch, line...)
		batch = append(batch, '\n')
	}
	return batch, nil
}
