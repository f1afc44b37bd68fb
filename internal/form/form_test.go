package form

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

const boundary = "testboundary"

const contentType = "multipart/form-data; boundary=" + boundary

// encode frames head and parts with the fixed test boundary.
func encode(t testing.TB, head string, js []byte, parts []Part) []byte {
	t.Helper()
	var buf bytes.Buffer
	mw := NewWriter(&buf)
	if err := mw.SetBoundary(boundary); err != nil {
		t.Fatal(err)
	}
	if err := Write(mw, head, js, parts); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decode reads a whole body, copying every part out of the reader's buffer.
func decode(contentType string, body io.Reader, head string) ([]byte, []Part, error) {
	r, js, err := NewReader(contentType, body, head)
	if err != nil {
		return nil, nil, err
	}
	defer r.Close()
	js = append([]byte{}, js...)
	var parts []Part
	for {
		name, data, err := r.Next()
		if errors.Is(err, io.EOF) {
			return js, parts, nil
		}
		if err != nil {
			return nil, nil, err
		}
		parts = append(parts, Part{Name: name, Data: append([]byte{}, data...)})
	}
}

func TestRoundTrip(t *testing.T) {
	every := make([]byte, 256)
	for i := range every {
		every[i] = byte(i)
	}
	parts := []Part{
		{"0/a/b.png", []byte("nested")},
		{`say "cheese"`, []byte("quoted")},
		{`back\slash`, []byte("backslash")},
		{"plättchen-色", []byte("non-ASCII")},
		{"tab\tname", []byte("tab")},
		{"empty", []byte{}},
		{"every byte", every},
		{"boundary lookalike", []byte("\r\n--" + boundary + "x\r\n--" + boundary + "-\r\n")},
	}
	js := []byte(`{"k":[1,2]}`)
	gotJS, got, err := decode(contentType, bytes.NewReader(encode(t, "head", js, parts)), "head")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJS, js) || !reflect.DeepEqual(got, parts) {
		t.Fatalf("round trip = %s %q\nwant %s %q", gotJS, got, js, parts)
	}
}

// TestWriteRefusesControlCharacterNames: a name that would break its part
// header fails the whole body before any byte is written.
func TestWriteRefusesControlCharacterNames(t *testing.T) {
	for _, name := range []string{"a\r\nContent-Type: text/html", "a\nb", "nul\x00", "del\x7f"} {
		var buf bytes.Buffer
		err := Write(NewWriter(&buf), "head", []byte("{}"), []Part{{"fine", nil}, {name, nil}})
		if err == nil || buf.Len() != 0 {
			t.Fatalf("name %q: err %v, %d bytes written", name, err, buf.Len())
		}
	}
}

// TestReaderRejectsMalformedBodies: every framing violation, and every
// body cut short of its closing delimiter, is an error and never a clean
// end.
func TestReaderRejectsMalformedBodies(t *testing.T) {
	type part struct{ name, body string }
	body := func(parts ...part) string {
		var b strings.Builder
		for _, p := range parts {
			fmt.Fprintf(&b, "--%s\r\nContent-Disposition: form-data; name=\"%s\"\r\n\r\n%s\r\n", boundary, p.name, p.body)
		}
		return b.String() + "--" + boundary + "--\r\n"
	}
	head := part{"head", "{}"}
	// A quoted name cannot carry a control character, but an RFC 2231
	// encoded one can.
	encoded := func(name string) string {
		return strings.Replace(body(head, part{"", "1"}), `name=""`, "name*=UTF-8''"+name, 1)
	}
	cases := map[string]string{
		"empty body":          "",
		"no parts":            "--" + boundary + "--\r\n",
		"head not first":      body(part{"x", "1"}, head),
		"second head":         body(head, head),
		"duplicate part":      body(head, part{"x", "1"}, part{"x", "2"}),
		"part without a name": body(head, part{"", "1"}),
		"control character":   body(head, part{"a\x01b", "1"}),
		"encoded line break":  encoded("a%0D%0Ab"),
		"encoded delete":      encoded("a%7Fb"),
		"no closing delim":    strings.TrimSuffix(body(head, part{"x", "1"}), "--"+boundary+"--\r\n"),
	}
	valid := body(head, part{"x", "raw bytes"}, part{"y", ""})
	for n := 0; n < len(valid)-len("\r\n"); n++ {
		cases[fmt.Sprintf("truncated at %d", n)] = valid[:n]
	}
	if _, _, err := decode(contentType, strings.NewReader(valid), "head"); err != nil {
		t.Fatalf("valid body: %v", err)
	}
	for name, b := range cases {
		if _, _, err := decode(contentType, strings.NewReader(b), "head"); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	for _, ct := range []string{"", "application/json", "multipart/form-data", "multipart/mixed; boundary=" + boundary} {
		if _, _, err := decode(ct, strings.NewReader(valid), "head"); err == nil {
			t.Errorf("content type %q accepted", ct)
		}
	}
}

// TestReaderSeesDelimiterAcrossReads: the closing delimiter counts even
// when the body arrives one byte per read.
func TestReaderSeesDelimiterAcrossReads(t *testing.T) {
	b := encode(t, "head", []byte("{}"), []Part{{"x", bytes.Repeat([]byte("z"), 5000)}})
	if _, parts, err := decode(contentType, &oneByteReader{b}, "head"); err != nil || len(parts) != 1 {
		t.Fatalf("parts %d, err %v", len(parts), err)
	}
}

type oneByteReader struct{ b []byte }

func (r *oneByteReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:1], r.b)
	r.b = r.b[n:]
	return n, nil
}

// FuzzReader: reading arbitrary bytes never panics, and whatever it
// accepts writes back to a body that reads the same.
func FuzzReader(f *testing.F) {
	f.Add(encode(f, "head", []byte(`{"a":1}`), []Part{{"0/plate.png", []byte{0x89, 'P', 'N', 'G'}}, {"e", nil}}))
	f.Add(encode(f, "head", nil, nil))
	f.Add([]byte("--" + boundary + "\r\nContent-Disposition: form-data; name=\"head\"\r\n\r\n[]\r\n--" +
		boundary + "\r\nContent-Disposition: form-data; name=\"x\"\r\n\r\nraw\r\n--" + boundary + "--\r\n"))
	f.Fuzz(func(t *testing.T, body []byte) {
		js, parts, err := decode(contentType, bytes.NewReader(body), "head")
		if err != nil {
			return
		}
		var buf bytes.Buffer
		mw := NewWriter(&buf)
		if err := Write(mw, "head", js, parts); err != nil {
			t.Fatalf("accepted body does not write back: %v", err)
		}
		js2, parts2, err := decode(mw.FormDataContentType(), &buf, "head")
		if err != nil {
			t.Fatalf("written-back body rejected: %v", err)
		}
		if !bytes.Equal(js2, js) || len(parts2) != len(parts) {
			t.Fatalf("head %q, %d parts; then %q, %d parts", js, len(parts), js2, len(parts2))
		}
		for i := range parts {
			if parts2[i].Name != parts[i].Name || !bytes.Equal(parts2[i].Data, parts[i].Data) {
				t.Fatalf("part %d: %q, then %q", i, parts[i].Name, parts2[i].Name)
			}
		}
	})
}
