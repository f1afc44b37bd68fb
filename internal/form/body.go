package form

import (
	"crypto/rand"
	"encoding/hex"
	"io"
	"strings"
	"unsafe"
)

// RawPart is one raw part of a body: its form name and its data, as the
// caller holds it, bytes or a string. A Body refers to the data; it never
// copies it.
type RawPart[D []byte | string] struct {
	Name string
	Data D
}

// Part is a raw part held as bytes.
type Part = RawPart[[]byte]

// Body is one body of the framing, ready to send. It holds the framing
// lines and, by reference, the JSON head and every part's data, so it
// knows its length before a byte is sent and writes each payload from the
// memory that holds it. A Body is read once, by Read or WriteTo; a copy
// of a Body made before it is read reads the whole body again, since
// copies share the data and never change it.
type Body struct {
	contentType string
	segs        [][]byte // the unread segments: framing lines and payloads
	off         int      // the bytes of segs[0] already read
	n           int64    // the unread bytes
}

// NewBody frames the JSON head as the part named head, then parts in
// order, under a random boundary. Every part name is checked first, so a
// body that cannot travel fails before anything is sent. The head name is
// the caller's constant and is written as it is.
func NewBody[D []byte | string](head string, js []byte, parts []RawPart[D]) (*Body, error) {
	// mime/multipart's boundary: 30 random bytes in hex.
	var buf [30]byte
	_, _ = rand.Read(buf[:]) // crypto/rand.Read never returns an error
	return newBody(hex.EncodeToString(buf[:]), head, js, parts)
}

// newBody is NewBody under a given boundary. Its lines are those
// mime/multipart.Writer writes for a part made by CreatePart with the
// head's two headers, then one made by CreateFormField per raw part.
func newBody[D []byte | string](boundary, head string, js []byte, parts []RawPart[D]) (*Body, error) {
	for _, p := range parts {
		if err := CheckName(p.Name); err != nil {
			return nil, err
		}
	}
	b := &Body{
		contentType: "multipart/form-data; boundary=" + boundary,
		segs:        make([][]byte, 0, 2*len(parts)+3),
	}
	add := func(seg []byte) {
		b.segs = append(b.segs, seg)
		b.n += int64(len(seg))
	}
	add([]byte("--" + boundary + "\r\nContent-Disposition: form-data; name=\"" + head +
		"\"\r\nContent-Type: application/json\r\n\r\n"))
	add(js)
	for _, p := range parts {
		add([]byte("\r\n--" + boundary + "\r\nContent-Disposition: form-data; name=\"" +
			quoteEscaper.Replace(p.Name) + "\"\r\n\r\n"))
		add(bytesOf(p.Data))
	}
	add([]byte("\r\n--" + boundary + "--\r\n"))
	return b, nil
}

// quoteEscaper escapes a part name inside its quoted header parameter, as
// mime/multipart does.
var quoteEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`)

// bytesOf returns data's bytes without copying them. A string's bytes are
// viewed where they are: a Body only reads them, and hands them only to
// copy and io.Writer.Write, which must not change them, as
// os.(*File).WriteString relies on too. io.WriteString is no substitute:
// net/http's ResponseWriter copies a string longer than 2 KiB through a
// 2 KiB buffer, into a write to the socket per 4 KiB.
func bytesOf[D []byte | string](data D) []byte {
	if s, ok := any(data).(string); ok {
		return unsafe.Slice(unsafe.StringData(s), len(s))
	}
	return any(data).([]byte)
}

// ContentType returns the body's Content-Type header, which names its
// boundary.
func (b *Body) ContentType() string { return b.contentType }

// Len returns the number of bytes not yet read: before any read, the
// body's Content-Length.
func (b *Body) Len() int64 { return b.n }

// Read copies the next bytes of the body into p.
func (b *Body) Read(p []byte) (int, error) {
	if b.n == 0 {
		return 0, io.EOF
	}
	n := 0
	for n < len(p) && len(b.segs) > 0 {
		m := copy(p[n:], b.segs[0][b.off:])
		n += m
		b.off += m
		if b.off == len(b.segs[0]) {
			b.segs, b.off = b.segs[1:], 0
		}
	}
	b.n -= int64(n)
	return n, nil
}

// WriteTo writes the rest of the body to w, with one Write per framing
// line and one per payload, and returns the bytes written.
func (b *Body) WriteTo(w io.Writer) (int64, error) {
	var n int64
	for ; len(b.segs) > 0; b.segs, b.off = b.segs[1:], 0 {
		m, err := w.Write(b.segs[0][b.off:])
		n += int64(m)
		b.off += m
		b.n -= int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}
