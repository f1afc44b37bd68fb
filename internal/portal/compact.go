package portal

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// compactHook, when set by tests, is called at every durability boundary of
// a compaction with a label naming the point just completed. Returning an
// error aborts the compaction right there, simulating a crash between two
// fsync/rename steps; whatever files the aborted run left behind must be
// handled by the next OpenStoreWith (or the next compaction), which is
// exactly what TestCompactionCrashEquivalence drives.
var compactHook func(point string) error

func compactPoint(point string) error {
	if compactHook == nil {
		return nil
	}
	return compactHook(point)
}

// Compact rewrites every sealed segment (and the previous snapshot, if any)
// into one fresh snapshot segment, then deletes the inputs and any blob
// files no surviving record references. The active segment keeps receiving
// appends throughout: compaction only ever reads sealed files, so it runs
// concurrently with ingest and needs no coordination with readers at all —
// the in-memory snapshot is untouched.
//
// Crash-safety is write-new-then-atomic-rename: the snapshot is built as
// snap-NNNNNN.snap.tmp, fsynced, renamed into place, and the directory
// synced before any input is removed. A crash at any point leaves either
// the old files, the new snapshot plus leftover inputs, or both — all
// states the open-time sweep (sweepSegmentDir) reduces to the same store.
func (s *Store) Compact() error {
	// cmu serializes compactions against each other and against Close; it is
	// never taken by the ingest or read path, so neither waits on a running
	// compaction.
	s.cmu.Lock()
	defer s.cmu.Unlock()
	s.wmu.Lock()
	if s.log == nil {
		s.wmu.Unlock()
		return fmt.Errorf("portal: compact: store has no segment log")
	}
	prev := s.compacted
	upTo := s.log.seq - 1
	// The blob watermark is captured under wmu, so no batch is mid-append:
	// every blob numbered ≤ blobW is either referenced by a committed
	// segment line or orphaned forever (its append failed or was torn) —
	// which makes the unreferenced ones safe to delete.
	blobW := s.blob
	activeSeg := s.log.seq
	activeLen := s.log.size
	s.wmu.Unlock()
	if upTo <= prev {
		return nil // nothing sealed beyond the newest snapshot
	}
	if err := compactFiles(s.dir, prev, upTo, blobW, activeSeg, activeLen); err != nil {
		return err
	}
	// Close waits on cmu, so the log is still open here.
	s.wmu.Lock()
	s.compacted = upTo
	s.wmu.Unlock()
	return nil
}

// maybeCompact starts a background compaction when enough sealed segments
// have piled up. Called with wmu held; the work itself runs in a goroutine
// so the ingest that tripped the threshold is not taxed with it.
func (s *Store) maybeCompact() {
	if s.autoCompact <= 0 || s.log == nil {
		return
	}
	if s.log.seq-1-s.compacted < s.autoCompact {
		return
	}
	if !s.compactQueued.CompareAndSwap(false, true) {
		return // one queued/running compaction at a time
	}
	s.compactWG.Add(1)
	go func() {
		defer s.compactWG.Done()
		defer s.compactQueued.Store(false)
		// Best-effort: a failed background compaction leaves the log exactly
		// as it was (the sweep handles partial output); the next threshold
		// crossing retries.
		_ = s.Compact()
	}()
}

// compactFiles performs the file-level rewrite: read snap-<prev> (if any)
// and segments prev+1..upTo, write their records — in original order, so
// slots and therefore search cursors are unchanged after a reopen — into
// snap-<upTo>, swap it in, delete the inputs, then garbage-collect
// unreferenced blobs up to the blobW watermark.
func compactFiles(dir string, prev, upTo, blobW, activeSeg int, activeLen int64) error {
	segDir := filepath.Join(dir, segmentDirName)
	// The header's blob watermark must cover exactly the snapshot's contents:
	// carry the previous header forward and scan only the raw segments.
	var recs []*segRecord
	head := snapHeader{Snap: true}
	keep := make(map[string]bool)
	if prev > 0 {
		data, err := os.ReadFile(snapPath(dir, prev))
		if err != nil {
			return fmt.Errorf("portal: compact: %w", err)
		}
		prevHead, prevRecs, err := snapDecode(data, 1)
		if err != nil {
			// Sealed files were fully committed; damage here is real
			// corruption, and rewriting around it would silently drop data.
			return fmt.Errorf("portal: compact: corrupt snapshot %s: %v",
				filepath.Base(snapPath(dir, prev)), err)
		}
		head.Blob = prevHead.Blob
		for ri := range prevRecs {
			sr := &prevRecs[ri]
			for _, ref := range sr.Blobs {
				keep[ref.File] = true
			}
			recs = append(recs, sr)
		}
	}
	var paths []string
	for n := prev + 1; n <= upTo; n++ {
		paths = append(paths, segmentPath(dir, n))
	}
	decs, err := decodeSegmentFiles(paths, 1)
	if err != nil {
		return fmt.Errorf("portal: compact: %w", err)
	}
	for i := range decs {
		// A sealed segment was fully committed; a line that no longer parses
		// is real corruption, never a torn tail.
		if decs[i].bad {
			return fmt.Errorf("portal: compact: corrupt record in %s at offset %d",
				filepath.Base(decs[i].path), decs[i].badOff)
		}
		for ri := range decs[i].recs {
			sr := &decs[i].recs[ri]
			for _, ref := range sr.Blobs {
				keep[ref.File] = true
				if n, ok := numberedFile(ref.File, "b-", ".bin"); ok && n > head.Blob {
					head.Blob = n
				}
			}
			recs = append(recs, sr)
		}
	}
	head.Count = len(recs)

	// Stage 1: build the new snapshot under a .tmp name. Everything up to
	// the rename is invisible to replay — sweepSegmentDir discards *.tmp.
	final := snapPath(dir, upTo)
	tmp := final + ".tmp"
	header, chunks, err := snapEncode(head, recs)
	if err != nil {
		return fmt.Errorf("portal: compact: encode snapshot: %w", err)
	}
	if err := writeSnapshotFile(tmp, header, chunks); err != nil {
		return err
	}
	// Stage 2: the atomic publish. After the rename the new snapshot is the
	// store of record; after the directory sync it survives power loss. The
	// inputs are still present until stage 3, which replay tolerates (it
	// ignores segments the newest snapshot covers).
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("portal: compact: publish snapshot: %w", err)
	}
	if err := compactPoint("renamed"); err != nil {
		return err
	}
	if err := syncDir(segDir); err != nil {
		return fmt.Errorf("portal: compact: sync segment dir: %w", err)
	}
	if err := compactPoint("renamed-synced"); err != nil {
		return err
	}
	// Stage 3: remove the inputs the snapshot replaced.
	inputs := paths
	if prev > 0 {
		inputs = append([]string{snapPath(dir, prev)}, paths...)
	}
	for _, p := range inputs {
		if err := os.Remove(p); err != nil {
			return fmt.Errorf("portal: compact: remove %s: %w", filepath.Base(p), err)
		}
		if err := compactPoint("removed:" + filepath.Base(p)); err != nil {
			return err
		}
	}
	if err := syncDir(segDir); err != nil {
		return fmt.Errorf("portal: compact: sync segment dir: %w", err)
	}
	if err := compactPoint("cleanup-synced"); err != nil {
		return err
	}
	// Stage 4: drop orphaned blobs — numbered within the watermark yet
	// referenced by no surviving record. References can live in the active
	// segment's committed prefix too, so scan it before deleting anything;
	// if that scan fails, skip GC rather than guess.
	if err := gcOrphanBlobs(dir, blobW, keep, activeSeg, activeLen); err != nil {
		return err
	}
	return nil
}

// writeSnapshotFile writes the encoded header + chunks to path and fsyncs it.
func writeSnapshotFile(path string, header []byte, chunks [][]byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("portal: compact: create snapshot: %w", err)
	}
	w := bufio.NewWriter(f)
	_, werr := w.Write(header)
	half := len(chunks) / 2
	for i := 0; i < len(chunks) && werr == nil; i++ {
		if _, werr = w.Write(chunks[i]); werr != nil {
			break
		}
		if i+1 == half && compactHook != nil {
			// Flush so the simulated crash leaves a genuinely partial
			// file on disk, then hit the hook.
			if werr = w.Flush(); werr == nil {
				werr = compactPoint("tmp-partial")
			}
		}
	}
	if werr == nil {
		werr = w.Flush()
	}
	if werr == nil {
		werr = compactPoint("tmp-written")
	}
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = compactPoint("tmp-synced")
	}
	if werr != nil {
		return fmt.Errorf("portal: compact: write snapshot: %w", werr)
	}
	return nil
}

// gcOrphanBlobs removes blob files numbered ≤ blobW that no record in keep
// references and the active segment's committed prefix does not reference
// either.
func gcOrphanBlobs(dir string, blobW int, keep map[string]bool, activeSeg int, activeLen int64) error {
	if activeLen > 0 {
		data, err := os.ReadFile(segmentPath(dir, activeSeg))
		if err != nil || int64(len(data)) < activeLen {
			return nil // can't prove anything is orphaned; keep all blobs
		}
		res := decodeOneChunk(decodeChunk{data: data[:activeLen]})
		if res.bad {
			return nil
		}
		for _, sr := range res.recs {
			for _, ref := range sr.Blobs {
				keep[ref.File] = true
			}
		}
	}
	names, err := filepath.Glob(filepath.Join(dir, blobDirName, "b-*.bin"))
	if err != nil {
		return nil
	}
	sort.Strings(names)
	for _, name := range names {
		base := filepath.Base(name)
		n, ok := numberedFile(base, "b-", ".bin")
		if !ok || n > blobW || keep[base] {
			continue
		}
		if err := os.Remove(name); err != nil {
			return fmt.Errorf("portal: compact: gc blob %s: %w", base, err)
		}
		if err := compactPoint("gc:" + base); err != nil {
			return err
		}
	}
	return nil
}
