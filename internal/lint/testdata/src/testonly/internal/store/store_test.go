package store

import "testing"

func TestStore(t *testing.T) {
	Helper()
	Seam()
	helper()
	s := Open()
	s.Hits++
	var _ Snapshot
	if s.Peek() != DefaultSize || Limit < MaxItems {
		t.Fatal("fixture")
	}
}
