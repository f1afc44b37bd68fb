package form

import (
	"bytes"
	"io"
	"mime"
	"mime/multipart"
	"net/textproto"
	"strings"
	"testing"
	"testing/iotest"
)

// oracleWrite frames head and parts with mime/multipart's writer, as this
// package did before Body: the head part by CreatePart, each raw part by
// CreateFormField.
func oracleWrite(t *testing.T, boundary, head string, js []byte, parts []Part) (string, []byte) {
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	if err := mw.SetBoundary(boundary); err != nil {
		t.Fatal(err)
	}
	h := make(textproto.MIMEHeader)
	h.Set("Content-Disposition", `form-data; name="`+head+`"`)
	h.Set("Content-Type", "application/json")
	pw, err := mw.CreatePart(h)
	if err != nil {
		t.Fatal(err)
	}
	pw.Write(js)
	for _, p := range parts {
		pw, err := mw.CreateFormField(p.Name)
		if err != nil {
			t.Fatal(err)
		}
		pw.Write(p.Data)
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	return mw.FormDataContentType(), buf.Bytes()
}

// asStrings returns parts with their data held as strings.
func asStrings(parts []Part) []RawPart[string] {
	out := make([]RawPart[string], len(parts))
	for i, p := range parts {
		out[i] = RawPart[string]{p.Name, string(p.Data)}
	}
	return out
}

// checkBody reads b twice, once by WriteTo and once by Read through a
// reader that asks for half of each buffer, and fails unless both give
// want and the body's length before the read.
func checkBody(t *testing.T, b *Body, want []byte) {
	t.Helper()
	if b.Len() != int64(len(want)) {
		t.Fatalf("Len %d, want %d", b.Len(), len(want))
	}
	again := *b // a copy made before any read reads the whole body
	var buf bytes.Buffer
	n, err := b.WriteTo(&buf)
	if err != nil || n != int64(len(want)) || !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("WriteTo wrote %d bytes, err %v:\n%q\nwant %d bytes:\n%q", n, err, buf.Bytes(), len(want), want)
	}
	if b.Len() != 0 {
		t.Fatalf("Len %d after WriteTo", b.Len())
	}
	got, err := io.ReadAll(iotest.HalfReader(&again))
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Read gave %d bytes, err %v:\n%q\nwant:\n%q", len(got), err, got, want)
	}
	if again.Len() != 0 {
		t.Fatalf("Len %d after Read", again.Len())
	}
}

// FuzzWriteMatchesMultipart: for any head, JSON and parts, a Body under a
// fixed boundary writes exactly the bytes mime/multipart's writer writes,
// whether its parts hold bytes or strings, and its length is the number
// of bytes it writes. A part name that holds a control character fails
// the body. The names are the lines of names, each with the data between
// two sep bytes of data, or none once data runs out.
func FuzzWriteMatchesMultipart(f *testing.F) {
	f.Add("head", []byte(`{"a":1}`), "0/plate.png\nempty\nlast", []byte("\x89PNG\x00\x00tail"), byte(0))
	f.Add("response", []byte(nil), `say "cheese"`+"\n"+`back\slash`+"\n\n"+`\"`, []byte("a|b||c"), byte('|'))
	f.Add("records", []byte("[]"), "tab\tname\nplättchen-色\nctl\x01", []byte("--"+boundary+"\r\n"), byte('\r'))
	f.Add("", []byte("{}"), "", []byte(nil), byte(0))
	f.Fuzz(func(t *testing.T, head string, js []byte, names string, data []byte, sep byte) {
		var parts []Part
		if names != "" {
			datas := bytes.Split(data, []byte{sep})
			for i, name := range strings.Split(names, "\n") {
				var d []byte
				if i < len(datas) {
					d = datas[i]
				}
				parts = append(parts, Part{name, d})
			}
		}
		var bad bool
		for _, p := range parts {
			bad = bad || CheckName(p.Name) != nil
		}
		ct, want := oracleWrite(t, boundary, head, js, parts)
		for _, b := range []func() (*Body, error){
			func() (*Body, error) { return newBody(boundary, head, js, parts) },
			func() (*Body, error) { return newBody(boundary, head, js, asStrings(parts)) },
		} {
			body, err := b()
			if bad {
				if err == nil {
					t.Fatalf("parts %q: want an error for a control character", parts)
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if body.ContentType() != ct {
				t.Fatalf("Content-Type %q, want %q", body.ContentType(), ct)
			}
			checkBody(t, body, want)
		}
	})
}

// TestBodyBoundaryIsRandom: every body gets a fresh boundary of 30 random
// bytes in hex, as mime/multipart's writer picks one, and its bytes are
// that writer's under the same boundary.
func TestBodyBoundaryIsRandom(t *testing.T) {
	parts := []Part{{"0/plate.png", []byte("frame")}}
	seen := map[string]bool{}
	for range 4 {
		b, err := NewBody("head", []byte("{}"), parts)
		if err != nil {
			t.Fatal(err)
		}
		_, params, err := mime.ParseMediaType(b.ContentType())
		if err != nil {
			t.Fatal(err)
		}
		bd := params["boundary"]
		if len(bd) != 60 || strings.Trim(bd, "0123456789abcdef") != "" || seen[bd] {
			t.Fatalf("boundary %q: want 60 fresh hex digits", bd)
		}
		seen[bd] = true
		_, want := oracleWrite(t, bd, "head", []byte("{}"), parts)
		checkBody(t, b, want)
	}
}
