// Package form is the one multipart/form-data framing (RFC 7578) this
// repository puts on the wire for bodies that carry large binary or
// string payloads beside structured data. A body is a JSON head part
// first, then named raw parts whose bodies are bytes copied as they are:
// nothing is base64-encoded or JSON-escaped.
//
// The portal's records body (a "records" head, one part per attachment)
// and the wei action response (a "response" head, one part per result
// string) are both this framing; each caller gives its head a name and
// interprets the raw part names itself. The framing's own rules live
// here:
//
//   - the head part comes first, and there is exactly one;
//   - every raw part has a name, and no name repeats;
//   - no part name holds an ASCII control character but tab, because a
//     line break would end the part header early.
package form

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"mime"
	"mime/multipart"
	"net/textproto"
	"strings"
	"sync"
)

// Writer frames one body. It is the standard library's multipart writer,
// so a caller can pick the boundary and read the Content-Type from it.
type Writer = multipart.Writer

// NewWriter returns a Writer that writes a body to w.
func NewWriter(w io.Writer) *Writer { return multipart.NewWriter(w) }

// Part is one raw part of a body.
type Part struct {
	Name string
	Data []byte
}

// CheckName reports whether name can be a part name: it must hold no
// ASCII control character but tab.
func CheckName(name string) error {
	if strings.ContainsFunc(name, func(r rune) bool { return r < ' ' && r != '\t' || r == 0x7f }) {
		return fmt.Errorf("form: part name %q holds a control character", name)
	}
	return nil
}

// Write writes the JSON head as the part named head, then parts in order,
// and closes mw. Every part name is checked before any byte is written,
// so a body that cannot travel fails with nothing sent. The head name is
// the caller's constant and is written as it is.
func Write(mw *Writer, head string, js []byte, parts []Part) error {
	for _, p := range parts {
		if err := CheckName(p.Name); err != nil {
			return err
		}
	}
	h := make(textproto.MIMEHeader)
	h.Set("Content-Disposition", `form-data; name="`+head+`"`)
	h.Set("Content-Type", "application/json")
	pw, err := mw.CreatePart(h)
	if err != nil {
		return err
	}
	if _, err := pw.Write(js); err != nil {
		return err
	}
	for _, p := range parts {
		pw, err := mw.CreateFormField(p.Name)
		if err != nil {
			return err
		}
		if _, err := pw.Write(p.Data); err != nil {
			return err
		}
	}
	return mw.Close()
}

// scratchPool recycles the buffers parts are read into, so a reader of
// multi-megabyte parts does not grow a fresh buffer for every body.
var scratchPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// Reader reads a body framed by Write, or by any RFC 7578 client that
// follows the same layout.
type Reader struct {
	mr      *multipart.Reader
	head    string
	seen    map[string]bool
	scratch *bytes.Buffer
}

// NewReader starts reading body, whose Content-Type header is
// contentType, and returns the bytes of its first part, which must be
// named head. The head bytes stay valid until the next call to Next or
// Close. Close the Reader when done with it.
func NewReader(contentType string, body io.Reader, head string) (*Reader, []byte, error) {
	mediaType, params, err := mime.ParseMediaType(contentType)
	if err != nil || mediaType != "multipart/form-data" || params["boundary"] == "" {
		return nil, nil, fmt.Errorf("content type %q: want multipart/form-data with a boundary", contentType)
	}
	boundary := params["boundary"]
	r := &Reader{
		mr:      multipart.NewReader(&closeWatch{r: body, delim: []byte("\r\n--" + boundary + "--")}, boundary),
		head:    head,
		seen:    map[string]bool{},
		scratch: scratchPool.Get().(*bytes.Buffer),
	}
	part, err := r.mr.NextPart()
	switch {
	case errors.Is(err, io.EOF):
		err = fmt.Errorf("no %s part", head)
	case err != nil:
	case part.FormName() != head:
		err = fmt.Errorf("first part is %q, want %q", part.FormName(), head)
	default:
		if err = r.read(part); err != nil {
			err = fmt.Errorf("%s part: %w", head, err)
		}
	}
	if err != nil {
		r.Close()
		return nil, nil, err
	}
	return r, r.scratch.Bytes(), nil
}

// Next reads the next raw part and returns its name and bytes. The bytes
// stay valid until the next call to Next or Close; a caller that keeps
// them copies them. After the last part Next returns io.EOF.
func (r *Reader) Next() (string, []byte, error) {
	part, err := r.mr.NextPart()
	if err != nil {
		return "", nil, err
	}
	// FormName, not FileName: FileName keeps only the base name, so a part
	// named "0/a/b.png" would lose its "0/a/".
	name := part.FormName()
	switch {
	case name == "":
		return "", nil, errors.New("part without a name")
	case name == r.head:
		return "", nil, fmt.Errorf("second %s part", r.head)
	case r.seen[name]:
		return "", nil, fmt.Errorf("part %q: duplicate", name)
	}
	if err := CheckName(name); err != nil {
		return "", nil, err
	}
	r.seen[name] = true
	if err := r.read(part); err != nil {
		return "", nil, fmt.Errorf("part %q: %w", name, err)
	}
	return name, r.scratch.Bytes(), nil
}

// read replaces the scratch buffer's contents with part's body.
func (r *Reader) read(part *multipart.Part) error {
	r.scratch.Reset()
	_, err := r.scratch.ReadFrom(part)
	return err
}

// Close returns the Reader's buffer for reuse. Bytes it returned are
// invalid afterwards.
func (r *Reader) Close() {
	if r.scratch != nil {
		scratchPool.Put(r.scratch)
		r.scratch = nil
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
