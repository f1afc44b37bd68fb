package portal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// segLog is the durable append-only log behind both the record store
// (segments/seg-NNNNNN.jsonl) and the event hub (events/ev-NNNNNN.jsonl):
// numbered segment files in one directory, each a sequence of
// newline-terminated JSON lines. It owns the directory's single-writer
// lock, the gap check and tail repair on open, the write → fsync commit
// with rollback-or-poison, and size rotation. What a line means is the
// caller's business.
//
// Tail repair is the one place a crash shows: an unterminated final line of
// the newest segment that is valid JSON landed whole but lost its '\n' and
// is kept (terminated now, or the next append would merge into it); any
// other unterminated final line is a torn append that never reached its
// fsync, so nobody was acknowledged for it, and it is truncated away. After
// repair every line is complete, so replay treats any line it cannot decode
// as corruption.
type segLog struct {
	dir    string
	prefix string // segment file name prefix: "seg-" or "ev-"
	f      *os.File
	seq    int   // active segment number (1-based)
	size   int64 // committed bytes: the segment's length after the last successful append
	// maxBytes seals the active segment once a committed batch fills it.
	maxBytes int64
	// fault poisons the log: set when a failed append could not be rolled
	// back (or a rotation failed), leaving the on-disk state untrustworthy
	// for further writes. Every later append is refused, which keeps the
	// committed prefix replayable instead of corrupting it.
	fault error
	// unlock releases the directory's single-writer lock on close.
	unlock func()
}

func segFile(dir, prefix string, n int) string {
	return filepath.Join(dir, fmt.Sprintf("%s%06d.jsonl", prefix, n))
}

// lockSegLog creates dir and takes its single-writer lock. Nothing in dir
// is truncated or removed before this returns, so a caller's own sweep of
// dir belongs between lockSegLog and open. close releases the lock.
func lockSegLog(dir, prefix string, maxBytes int64) (*segLog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("portal: create %s: %w", dir, err)
	}
	unlock, err := lockDataDir(dir)
	if err != nil {
		return nil, err
	}
	return &segLog{dir: dir, prefix: prefix, maxBytes: maxBytes, unlock: unlock}, nil
}

// open checks that the segments in dir are numbered after+1, after+2, …
// with no gap, repairs the newest one's tail, and opens it — or a fresh
// segment after+1 when there is none — for append. It returns the paths of
// the existing segments, oldest first, for the caller to replay.
func (l *segLog) open(after int) ([]string, error) {
	names, err := filepath.Glob(filepath.Join(l.dir, l.prefix+"*.jsonl"))
	if err != nil {
		return nil, fmt.Errorf("portal: list %s: %w", l.dir, err)
	}
	var seqs []int
	for _, name := range names {
		if n, ok := numberedFile(filepath.Base(name), l.prefix, ".jsonl"); ok {
			seqs = append(seqs, n)
		}
	}
	sort.Ints(seqs)
	paths := make([]string, len(seqs))
	for i, n := range seqs {
		if n != after+1+i {
			return nil, fmt.Errorf("portal: segment log gap: missing %s%06d.jsonl", l.prefix, after+1+i)
		}
		paths[i] = segFile(l.dir, l.prefix, n)
	}
	l.seq = after + max(len(seqs), 1)
	f, err := os.OpenFile(segFile(l.dir, l.prefix, l.seq), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("portal: open segment: %w", err)
	}
	l.f = f
	// The OpenFile may just have created the segment: make its directory
	// entry durable before any batch is acknowledged out of it.
	if err := syncDir(l.dir); err != nil {
		return nil, fmt.Errorf("portal: open segment: %w", err)
	}
	if err := l.repairTail(); err != nil {
		return nil, fmt.Errorf("portal: repair tail of %s: %w", filepath.Base(f.Name()), err)
	}
	return paths, nil
}

// repairTail applies the tail rule (see segLog) to the active segment and
// sets size to the repaired length.
func (l *segLog) repairTail() error {
	st, err := l.f.Stat()
	if err != nil {
		return err
	}
	l.size = st.Size()
	if l.size == 0 {
		return nil
	}
	data := make([]byte, 1)
	if _, err := l.f.ReadAt(data, l.size-1); err != nil {
		return err
	}
	if data[0] == '\n' {
		return nil
	}
	data = make([]byte, l.size)
	if _, err := l.f.ReadAt(data, 0); err != nil {
		return err
	}
	start := int64(bytes.LastIndexByte(data, '\n') + 1)
	if json.Valid(data[start:]) {
		if _, err := l.f.Write([]byte{'\n'}); err != nil {
			return err
		}
		l.size++
		return nil
	}
	if err := l.f.Truncate(start); err != nil {
		return err
	}
	l.size = start
	return nil
}

// usable reports whether the log can accept appends, surfacing the poison
// fault set by an unrecoverable earlier failure.
func (l *segLog) usable() error {
	if l.fault != nil {
		return fmt.Errorf("portal: segment log unusable after earlier failure: %w", l.fault)
	}
	return nil
}

// append commits batch — whole '\n'-terminated lines — as a unit. The fsync
// is the commit point: a batch acknowledged to the caller must survive
// power loss, not just process death. A failed write or fsync truncates the
// segment back to its committed length, so no partial line can ride along
// with a later batch and brick replay; if that rollback fails the log is
// poisoned. A commit that fills the segment rotates to the next one.
func (l *segLog) append(batch []byte) error {
	if err := l.usable(); err != nil {
		return err
	}
	_, err := l.f.Write(batch)
	if err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		if terr := l.f.Truncate(l.size); terr != nil {
			l.fault = fmt.Errorf("roll back segment to %d bytes: %v (after append failure: %v)", l.size, terr, err)
			return fmt.Errorf("portal: %w", l.fault)
		}
		return fmt.Errorf("portal: append batch: %w", err)
	}
	l.size += int64(len(batch))
	if l.size >= l.maxBytes {
		if err := l.rotate(); err != nil {
			// The fsync succeeded, so this batch is durable and must commit;
			// only future appends have nowhere safe to go.
			l.fault = err
		}
	}
	return nil
}

// rotate closes the full segment and starts the next one, fsyncing the
// directory so the new name survives a power loss.
func (l *segLog) rotate() error {
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("portal: close segment: %w", err)
	}
	f, err := os.OpenFile(segFile(l.dir, l.prefix, l.seq+1), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("portal: rotate segment: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		// The rotation is failing and poisons the log; the fresh, empty
		// segment's close error cannot matter beyond that.
		_ = f.Close()
		return fmt.Errorf("portal: rotate segment: %w", err)
	}
	l.seq++
	l.f, l.size = f, 0
	return nil
}

// close closes the active segment, if open, and releases the lock. Every
// committed batch was fsynced by append, so there is nothing to flush.
func (l *segLog) close() error {
	defer l.unlock()
	if l.f == nil {
		return nil
	}
	return l.f.Close()
}
