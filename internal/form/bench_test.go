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

// actionParts returns the head and the part of a wei action response:
// a JSON head and one string part holding the base64 of a frame of size
// bytes.
func actionParts(size int) ([]byte, []RawPart[string]) {
	frame := base64.StdEncoding.EncodeToString(randomBytes(size))
	return []byte(`{"status":"succeeded","result":{"plate":"p1","wells":["A1","A2","A3","A4"]}}`),
		[]RawPart[string]{{"result/frame", frame}}
}

// actionBody frames a wei action response.
func actionBody(tb testing.TB, size int) []byte {
	js, parts := actionParts(size)
	return encode(tb, "head", js, []Part{{parts[0].Name, []byte(parts[0].Data)}})
}

// ingestParts returns the head and the parts of a portal ingest batch: a
// JSON head of 32 records and one binary part of size bytes per record.
func ingestParts(size int) ([]byte, []Part) {
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
	return js.Bytes(), parts
}

// ingestBody frames a portal ingest batch.
func ingestBody(tb testing.TB, size int) []byte {
	js, parts := ingestParts(size)
	return encode(tb, "head", js, parts)
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

// BenchmarkWrite frames the same two bodies and sends each the way its
// hop does: a workcell writes an action response to its ResponseWriter
// with WriteTo, and the portal client's transport reads an ingest batch
// through 32 KiB reads. Both go to io.Discard, so the figure is the
// framing's own cost: for ingest, the one copy a socket write needs.
func BenchmarkWrite(b *testing.B) {
	b.Run("action", func(b *testing.B) {
		js, parts := actionParts(framePNG)
		benchWrite(b, func() (*Body, error) { return NewBody("head", js, parts) }, func(body *Body) error {
			_, err := body.WriteTo(io.Discard)
			return err
		})
	})
	b.Run("ingest", func(b *testing.B) {
		js, parts := ingestParts(framePNG)
		buf := make([]byte, 32<<10)
		benchWrite(b, func() (*Body, error) { return NewBody("head", js, parts) }, func(body *Body) error {
			for {
				if _, err := body.Read(buf); err != nil {
					if errors.Is(err, io.EOF) {
						return nil
					}
					return err
				}
			}
		})
	})
}

// benchWrite builds a body with build and sends it with send, once per
// iteration.
func benchWrite(b *testing.B, build func() (*Body, error), send func(*Body) error) {
	body, err := build()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(body.Len())
	b.ReportAllocs()
	for b.Loop() {
		body, err := build()
		if err != nil {
			b.Fatal(err)
		}
		if err := send(body); err != nil {
			b.Fatal(err)
		}
	}
}
