package form

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"mime"
	"mime/multipart"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
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

// TestReaderRejectsWhatMultipartReads: the three inputs the package doc
// lists are refused, each with its own error, though mime/multipart reads
// every one of them. A body that ends before its close delimiter is
// refused too, even where the close-delimiter bytes went by earlier in a
// line that is not a close-delimiter line.
func TestReaderRejectsWhatMultipartReads(t *testing.T) {
	const hdr = "Content-Disposition: form-data; name=\"head\""
	cases := map[string]struct {
		body string
		want error
	}{
		"bare LF delimiter": {"--" + boundary + "\n" + hdr + "\n\n{}\n--" + boundary + "--\n", errBareLF},
		"bare LF before a delimiter": {"--" + boundary + "\r\n" + hdr + "\n\n--" + boundary + "--\r\n",
			errBareLF},
		"quoted-printable": {"--" + boundary + "\r\n" + hdr + "\r\nContent-Transfer-Encoding: quoted-printable\r\n\r\n" +
			"a=3Db\r\n--" + boundary + "--\r\n", errQuotedPrintable},
		"long header": {"--" + boundary + "\r\n" + hdr + "\r\n" +
			strings.Repeat("X-Pad: "+strings.Repeat("p", 1000)+"\r\n", 70) + "\r\n{}\r\n--" + boundary + "--\r\n",
			errLongHeader},
		"cut after close bytes in the preamble": {"\r\n--" + boundary + "--x\r\n--" + boundary + "\r\n" + hdr +
			"\r\n\r\n{}\r\n--" + boundary + "\r\n", io.ErrUnexpectedEOF},
	}
	for name, c := range cases {
		if _, _, err := oracleDecode(contentType, c.body); err != nil {
			t.Errorf("%s: mime/multipart refuses it too: %v", name, err)
		}
		if _, _, err := decode(contentType, strings.NewReader(c.body), "head"); !errors.Is(err, c.want) {
			t.Errorf("%s: err %v, want %v", name, err, c.want)
		}
	}
}

// FuzzReaderMatchesMultipart: the reader accepts what mime/multipart,
// with the close-delimiter check the package used before it parsed the
// framing itself, accepts, and reads the same head and parts. The
// exceptions are the package doc's three rejections, the oracle's own
// line and header-count limits, and a body the oracle accepts only
// because the close-delimiter bytes went by in a line that is not a
// close-delimiter line.
func FuzzReaderMatchesMultipart(f *testing.F) {
	f.Add(encode(f, "head", []byte(`{"a":1}`), []Part{{"0/plate.png", []byte{0x89, 'P', 'N', 'G'}}, {"e", nil}}))
	f.Add(encode(f, "head", nil, []Part{{"x", []byte("\r\n--" + boundary + "x\r\n--" + boundary + "-\r\n")}}))
	f.Add([]byte("preamble\r\n--" + boundary + " \t\r\nContent-Disposition: form-data; name=\"head\"\r\n\r\n--" +
		boundary + "\t\r\nContent-Disposition: form-data; name*=UTF-8''%C3%A4\r\n\nraw\r\n--" + boundary +
		" \r\nContent-Disposition: form-data; name=\"y\"\r\n\r\n\r\n--" + boundary + "-- \r\nepilogue"))
	f.Add([]byte("--" + boundary + "\nContent-Disposition: form-data; name=\"head\"\n\n{}\n--" + boundary + "--\n"))
	f.Add([]byte("\r\n--" + boundary + "--x\r\n--" + boundary + "\r\nContent-Disposition: form-data; name=\"head\"\r\n\r\n{}\r\n--" +
		boundary + "\r\n"))
	f.Fuzz(func(t *testing.T, body []byte) {
		js, parts, err := decode(contentType, bytes.NewReader(body), "head")
		ojs, oparts, oerr := oracleDecode(contentType, string(body))
		switch {
		case errors.Is(err, errBareLF), errors.Is(err, errQuotedPrintable), errors.Is(err, errLongHeader):
			return
		case errors.Is(oerr, bufio.ErrBufferFull), errors.Is(oerr, multipart.ErrMessageTooLarge):
			return
		case oerr == nil && err != nil:
			if _, _, serr := oracleDecodeFrom(contentType, cutUnlessClosed(body)); serr != nil {
				return
			}
			t.Fatalf("mime/multipart accepts, reader refuses: %v", err)
		case oerr != nil && err == nil:
			t.Fatalf("reader accepts, mime/multipart refuses: %v", oerr)
		case err != nil:
			return
		}
		if !bytes.Equal(js, ojs) || !reflect.DeepEqual(parts, oparts) {
			t.Fatalf("reader reads %q %q\nmime/multipart reads %q %q", js, parts, ojs, oparts)
		}
	})
}

// cutUnlessClosed ends body with io.ErrUnexpectedEOF instead of io.EOF
// unless body ends in a close-delimiter line.
func cutUnlessClosed(body []byte) io.Reader {
	if bytes.HasSuffix(bytes.TrimRight(body, " \t"), []byte("\r\n--"+boundary+"--")) {
		return bytes.NewReader(body)
	}
	return io.MultiReader(bytes.NewReader(body), iotest.ErrReader(io.ErrUnexpectedEOF))
}

// oracleDecode reads body as the package did before it parsed the framing
// itself: mime/multipart, behind closeWatch.
func oracleDecode(contentType, body string) ([]byte, []Part, error) {
	return oracleDecodeFrom(contentType, &closeWatch{r: strings.NewReader(body),
		delim: []byte("\r\n--" + boundary + "--")})
}

// oracleDecodeFrom is decode over mime/multipart, with the same framing
// rules as Reader.
func oracleDecodeFrom(contentType string, body io.Reader) ([]byte, []Part, error) {
	_, params, err := mime.ParseMediaType(contentType)
	if err != nil {
		return nil, nil, err
	}
	mr := multipart.NewReader(body, params["boundary"])
	read := func() (string, []byte, error) {
		p, err := mr.NextPart()
		if err != nil {
			return "", nil, err
		}
		data, err := io.ReadAll(p)
		return p.FormName(), data, err
	}
	name, js, err := read()
	switch {
	case errors.Is(err, io.EOF):
		return nil, nil, errors.New("no head part")
	case err != nil:
		return nil, nil, err
	case name != "head":
		return nil, nil, fmt.Errorf("first part is %q", name)
	}
	var parts []Part
	seen := map[string]bool{}
	for {
		name, data, err := read()
		switch {
		case errors.Is(err, io.EOF):
			return js, parts, nil
		case err != nil:
			return nil, nil, err
		case name == "" || name == "head" || seen[name]:
			return nil, nil, fmt.Errorf("part %q", name)
		case CheckName(name) != nil:
			return nil, nil, CheckName(name)
		}
		seen[name] = true
		parts = append(parts, Part{Name: name, Data: data})
	}
}

// closeWatch passes a body through, but ends it with io.ErrUnexpectedEOF
// instead of io.EOF unless the closing delimiter went by: the multipart
// reader takes a body cut inside a part header for a clean end.
type closeWatch struct {
	r     io.Reader
	delim []byte // "\r\n--<boundary>--"
	tail  []byte // the last bytes read, for a delimiter split across reads
	seen  bool
}

func (c *closeWatch) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if !c.seen && n > 0 {
		c.seen = c.scan(p[:n])
	}
	if errors.Is(err, io.EOF) && !c.seen {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

// scan reports whether the delimiter ends in b, or in b after the tail,
// and keeps the last len(delim)-1 bytes read as the new tail.
func (c *closeWatch) scan(b []byte) bool {
	k := len(c.delim) - 1
	c.tail = append(c.tail, b[:min(len(b), k)]...)
	if bytes.Contains(c.tail, c.delim) || bytes.Contains(b, c.delim) {
		return true
	}
	if len(b) >= k {
		c.tail = append(c.tail[:0], b[len(b)-k:]...)
	} else if extra := len(c.tail) - k; extra > 0 {
		c.tail = append(c.tail[:0], c.tail[extra:]...)
	}
	return false
}
