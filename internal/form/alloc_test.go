package form

import (
	"bytes"
	"testing"
)

// TestReaderAllocs pins the bounded design: once the window and the part
// buffer are pooled, reading a body allocates the same few objects per
// part whatever the parts' sizes, so no body is ever read whole.
func TestReaderAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool intentionally drops Puts under -race; exact allocation counts don't hold")
	}
	for _, c := range []struct {
		name string
		body func(testing.TB, int) []byte
		max  float64
	}{
		{"action", actionBody, 30},
		{"ingest", ingestBody, 400},
	} {
		allocs := func(size int) float64 {
			b := c.body(t, size)
			body := bytes.NewReader(nil)
			return testing.AllocsPerRun(10, func() {
				body.Reset(b)
				readAll(t, body)
			})
		}
		small, full := allocs(framePNG/64), allocs(framePNG)
		t.Logf("%s: %v allocs per body", c.name, full)
		if full != small || full > c.max {
			t.Errorf("%s: %v allocs per body with %d-byte frames, %v with %d-byte ones; want equal and at most %v",
				c.name, full, framePNG, small, framePNG/64, c.max)
		}
	}
}
