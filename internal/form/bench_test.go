package form

import (
	"bytes"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"testing"
)

// framePNG is the size of one camera frame as the stored-block PNG the
// portal keeps; its base64 (1.23 MB) is what a wei action response
// carries.
const framePNG = 920_000

// actionBody frames a wei action response: a JSON head and one part
// holding the base64 of a frame of size bytes.
func actionBody(tb testing.TB, size int) []byte {
	frame := base64.StdEncoding.EncodeToString(randomBytes(size))
	return encode(tb, "head", []byte(`{"status":"succeeded","result":{"plate":"p1","wells":["A1","A2","A3","A4"]}}`),
		[]Part{{"result/frame", []byte(frame)}})
}

// ingestBody frames a portal ingest batch: a JSON head of 32 records and
// one binary part of size bytes per record.
func ingestBody(tb testing.TB, size int) []byte {
	frame := randomBytes(size)
	var js bytes.Buffer
	parts := make([]Part, 32)
	js.WriteByte('[')
	for i := range parts {
		if i > 0 {
			js.WriteByte(',')
		}
		fmt.Fprintf(&js, `{"experiment":"bench","run":%d,"time":"2023-08-16T09:00:00Z","fields":{"score":%d.5}}`, i, i)
		parts[i] = Part{Name: fmt.Sprintf("%d/plate.png", i), Data: frame}
	}
	js.WriteByte(']')
	return encode(tb, "head", js.Bytes(), parts)
}

func randomBytes(n int) []byte {
	b := make([]byte, n)
	rng := rand.New(rand.NewPCG(1, 2))
	for i := range b {
		b[i] = byte(rng.Uint32())
	}
	return b
}

// readAll reads body to its end, as the callers do, without copying the
// parts out.
func readAll(tb testing.TB, body *bytes.Reader) {
	r, _, err := NewReader(contentType, body, "head")
	if err != nil {
		tb.Fatal(err)
	}
	defer r.Close()
	for {
		if _, _, err := r.Next(); err != nil {
			if !errors.Is(err, io.EOF) {
				tb.Fatal(err)
			}
			return
		}
	}
}

// BenchmarkReader reads the two bodies the framing carries: a wei action
// response with one base64 frame and a 32-frame portal ingest batch.
func BenchmarkReader(b *testing.B) {
	for _, c := range []struct {
		name string
		body []byte
	}{
		{"action", actionBody(b, framePNG)},
		{"ingest", ingestBody(b, framePNG)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(c.body)))
			b.ReportAllocs()
			// Pool the window and the part buffer, as a running server has.
			body := bytes.NewReader(c.body)
			readAll(b, body)
			for b.Loop() {
				body.Reset(c.body)
				readAll(b, body)
			}
		})
	}
}
