//go:build unix

package portal

import (
	"fmt"
	"os"
	"path/filepath"
	"syscall"
)

// lockDataDir takes an exclusive advisory flock on <dir>/LOCK, failing
// fast if another live process owns the data dir: two writers would
// interleave appends with independent slot counts and brick the archive
// with records whose IDs are not their positions on the next replay. The kernel drops the lock
// when the process dies, so a crash never leaves a stale lock behind.
func lockDataDir(dir string) (release func(), err error) {
	f, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("portal: lock data dir: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		_ = f.Close() // lock not acquired; no write happened through this fd
		return nil, fmt.Errorf("portal: data dir %s is locked by another process", dir)
	}
	// Closing the fd releases the flock; the LOCK file carries no data, so
	// the close error is deliberately discarded.
	return func() { _ = f.Close() }, nil
}
