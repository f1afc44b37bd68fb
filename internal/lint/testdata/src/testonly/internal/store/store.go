// Package store is a testonly fixture: exported names under an internal/
// directory, some used by the sibling cmd/tool package and some only by
// this package's tests.
package store

// Store is named in Open's signature.
type Store struct {
	Items []int  // used by cmd/tool
	Hits  int    // want:testonly
	Name  string `json:"name"` // tagged: encoding/json reads it by reflection
	size  int
}

// Open is used by cmd/tool.
func Open() *Store { return &Store{size: DefaultSize} }

// OnlyCmd is used by cmd/tool and by nothing under internal/.
func OnlyCmd() {}

// Helper is called only from store_test.go.
func Helper() {} // want:testonly

// Peek is called only from store_test.go.
func (s *Store) Peek() int { return s.size } // want:testonly

// Snapshot is named only in store_test.go.
type Snapshot struct{} // want:testonly

// DefaultSize is read by Open, so it is in use.
var DefaultSize = 4

// Limit is read only from store_test.go.
var Limit = 16 // want:testonly

// MaxItems is read only from store_test.go.
const MaxItems = 8 // want:testonly

// Seam is a deliberate test seam.
//
//lint:ignore testonly fixture seam: the directive keeps it without a finding
func Seam() {}

// helper is unexported, so it is out of scope however it is used.
func helper() {}
