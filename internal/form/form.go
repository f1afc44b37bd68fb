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
//
// Bodies are written with the standard library's multipart writer. The
// Reader parses the framing itself, in one pass over the body through a
// 64 KiB window: it finds each "\r\n--<boundary>" delimiter with
// bytes.Index, takes every other occurrence of the boundary for body
// bytes, and copies each part's bytes once, into one reused buffer. Part
// headers are read with net/textproto and the part name with
// mime.ParseMediaType, so RFC 2231 encoded names work. Memory is bounded
// by the largest part plus the window, never by the whole body. A body
// that ends before its close-delimiter line is an error, never a clean
// end.
//
// Where mime/multipart reads a body through its close-delimiter line, this
// Reader reads the same parts, except from three inputs, each rejected
// with its own error:
//
//   - a delimiter line that ends in a bare LF instead of CRLF, and a
//     delimiter right after a part header block that ends in a bare-LF
//     blank line (mime/multipart switches to LF line endings);
//   - a part with "Content-Transfer-Encoding: quoted-printable", which
//     mime/multipart decodes silently;
//   - a part header block longer than the window.
//
// Neither Write nor curl -F produces any of them.
package form

import (
	"bufio"
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

// window is the size of the buffer a Reader reads its body through. A
// part header block, and any one line outside a part's body, must fit in
// it.
const window = 64 << 10

// The three inputs mime/multipart reads and a Reader refuses.
var (
	errBareLF          = errors.New("form: delimiter line ends in a bare LF")
	errQuotedPrintable = errors.New("form: quoted-printable part")
	errLongHeader      = errors.New("form: part header block longer than the 64 KiB read window")
)

// buffers are what a Reader holds for one body. They are pooled, so a
// reader of multi-megabyte parts grows no fresh buffer for every body.
type buffers struct {
	win     []byte       // the read window, len(win) == window
	scratch bytes.Buffer // the current part's bytes
	delim   []byte       // "\r\n--<boundary>"
	hdr     bytes.Reader // the current header block, under tp
	tp      textproto.Reader
}

var bufPool = sync.Pool{New: func() any {
	b := &buffers{win: make([]byte, window)}
	b.tp.R = bufio.NewReader(&b.hdr)
	return b
}}

// Reader reads a body framed by Write, or by any RFC 7578 client that
// follows the same layout. It reads the body once, front to back, through
// a pooled 64 KiB window, and copies each part's bytes once, into a pooled
// buffer; the package doc lists the inputs it refuses that mime/multipart
// reads.
type Reader struct {
	*buffers
	body io.Reader
	r, w int   // the unread bytes of the window are win[r:w]
	err  error // the body's read error, io.EOF once it has ended
	// lfBlank: the current part's header block ended in a bare-LF blank
	// line, so a delimiter right after it would lack its CR.
	lfBlank bool
	done    bool // the close-delimiter line has been read
	head    string
	seen    map[string]bool
}

// NewReader starts reading body, whose Content-Type header is
// contentType, and returns the bytes of its first part, which must be
// named head. Lines before the first delimiter line are skipped. The head
// bytes stay valid until the next call to Next or Close. Close the Reader
// when done with it.
func NewReader(contentType string, body io.Reader, head string) (*Reader, []byte, error) {
	mediaType, params, err := mime.ParseMediaType(contentType)
	if err != nil || mediaType != "multipart/form-data" || params["boundary"] == "" {
		return nil, nil, fmt.Errorf("content type %q: want multipart/form-data with a boundary", contentType)
	}
	r := &Reader{buffers: bufPool.Get().(*buffers), body: body, head: head, seen: map[string]bool{}}
	r.delim = append(append(r.delim[:0], "\r\n--"...), params["boundary"]...)
	name, err := r.nextPart(true)
	switch {
	case errors.Is(err, io.EOF):
		err = fmt.Errorf("no %s part", head)
	case err != nil:
	case name != head:
		err = fmt.Errorf("first part is %q, want %q", name, head)
	default:
		if err = r.readPart(); err != nil {
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
// them copies them. After the close-delimiter line Next returns io.EOF; a
// body that ends before it is an error.
func (r *Reader) Next() (string, []byte, error) {
	if r.done {
		return "", nil, io.EOF
	}
	name, err := r.nextPart(false)
	if err != nil {
		return "", nil, err
	}
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
	if err := r.readPart(); err != nil {
		return "", nil, fmt.Errorf("part %q: %w", name, err)
	}
	return name, r.scratch.Bytes(), nil
}

// Close returns the Reader's buffers for reuse. Bytes it returned are
// invalid afterwards.
func (r *Reader) Close() {
	if r.buffers != nil {
		bufPool.Put(r.buffers)
		r.buffers = nil
	}
}

// fill reads more of the body into the window, after moving the unread
// bytes to its front. It returns nil once it has read at least one byte
// or seen the body end, so that the caller can decide again, and an error
// when the caller could not decide even at the body's end, or when the
// window is full of unread bytes.
func (r *Reader) fill() error {
	if r.err != nil {
		if errors.Is(r.err, io.EOF) {
			return io.ErrUnexpectedEOF
		}
		return r.err
	}
	if r.r > 0 {
		r.w = copy(r.win, r.win[r.r:r.w])
		r.r = 0
	}
	if r.w == len(r.win) {
		return errLongHeader
	}
	// The bound bufio puts on a reader that returns neither bytes nor an
	// error.
	for range 100 {
		n, err := r.body.Read(r.win[r.w:])
		r.w += n
		r.err = err
		if n > 0 || err != nil {
			return nil
		}
	}
	return io.ErrNoProgress
}

// nextPart reads the boundary line at the front of the window and, after
// a delimiter line, the part header block that follows it, and returns
// the part's name. After the close-delimiter line it returns io.EOF. With
// preamble set, lines that are neither are skipped; otherwise they are an
// error.
func (r *Reader) nextPart(preamble bool) (string, error) {
	for {
		buf := r.win[r.r:r.w]
		i := bytes.IndexByte(buf, '\n')
		if i < 0 && r.err == nil {
			if err := r.fill(); err != nil {
				return "", err
			}
			continue
		}
		line := buf // the body's last line, without a line ending
		if i >= 0 {
			line = buf[:i+1]
		}
		rest, ok := bytes.CutPrefix(line, r.delim[2:])
		if ok {
			if end, ok := bytes.CutPrefix(rest, []byte("--")); ok {
				end = bytes.TrimLeft(end, " \t")
				if string(end) == "\r\n" || len(end) == 0 && errors.Is(r.err, io.EOF) {
					r.done = true
					return "", io.EOF
				}
			} else {
				switch string(bytes.TrimLeft(rest, " \t")) {
				case "\r\n":
					r.r += len(line)
					return r.header()
				case "\n":
					return "", errBareLF
				}
			}
		}
		switch {
		case i < 0:
			return "", r.fill()
		case !preamble:
			return "", fmt.Errorf("line %q where a delimiter line belongs", line)
		}
		r.r += len(line)
	}
}

// header reads the part header block at the front of the window, through
// the blank line that ends it, and returns the part's name.
func (r *Reader) header() (string, error) {
	n := blankLineEnd(r.win[r.r:r.w])
	for ; n == 0; n = blankLineEnd(r.win[r.r:r.w]) {
		if err := r.fill(); err != nil {
			return "", err
		}
	}
	block := r.win[r.r : r.r+n]
	r.r += n
	r.lfBlank = n < 2 || block[n-2] != '\r'
	r.hdr.Reset(block)
	r.tp.R.Reset(&r.hdr)
	h, err := r.tp.ReadMIMEHeader()
	if err != nil {
		return "", err
	}
	if strings.EqualFold(h.Get("Content-Transfer-Encoding"), "quoted-printable") {
		return "", errQuotedPrintable
	}
	// The form name, not the file name: a file name keeps only its base
	// name, so a part named "0/a/b.png" would lose its "0/a/".
	disposition, params, err := mime.ParseMediaType(h.Get("Content-Disposition"))
	if err != nil || disposition != "form-data" {
		return "", nil
	}
	return params["name"], nil
}

// blankLineEnd returns the length of the header block at the front of
// buf through its first blank line ("\r\n" or "\n", as net/textproto
// reads lines), or 0 when buf holds no blank line yet.
func blankLineEnd(buf []byte) int {
	for i := 0; i < len(buf); {
		switch {
		case buf[i] == '\n':
			return i + 1
		case buf[i] == '\r' && i+1 < len(buf) && buf[i+1] == '\n':
			return i + 2
		}
		j := bytes.IndexByte(buf[i:], '\n')
		if j < 0 {
			break
		}
		i += j + 1
	}
	return 0
}

// readPart copies the body of the part whose header block was just read
// into the scratch buffer, up to the delimiter that ends it, and leaves
// the window at the delimiter's boundary line.
func (r *Reader) readPart() error {
	r.scratch.Reset()
	dash := r.delim[2:]
	from := r.r // where the search for the delimiter resumes
	// The delimiter's CRLF may be the blank line's that ends the header
	// block, so that the boundary line follows it directly and the part is
	// empty.
	for {
		buf := r.win[r.r:r.w]
		if !bytes.HasPrefix(buf, dash) {
			if bytes.HasPrefix(dash, buf) && r.err == nil {
				if err := r.fill(); err != nil {
					return err
				}
				from = r.r
				continue
			}
			break
		}
		m := ends(buf[len(dash):], r.err != nil)
		if m > 0 && r.lfBlank {
			return errBareLF
		}
		if m > 0 {
			return nil
		}
		if m < 0 {
			from = r.r + len(dash)
			break
		}
		if err := r.fill(); err != nil {
			return err
		}
		from = r.r
	}
	for {
		keep := max(from, r.w-len(r.delim)+1) // bytes from here on may begin a delimiter
		if i := bytes.Index(r.win[from:r.w], r.delim); i >= 0 {
			i += from
			switch ends(r.win[i+len(r.delim):r.w], r.err != nil) {
			case 1:
				r.scratch.Write(r.win[r.r:i])
				r.r = i + 2
				return nil
			case -1:
				from = i + len(r.delim)
				continue
			}
			keep = i
		}
		r.scratch.Write(r.win[r.r:keep])
		r.r = keep
		if err := r.fill(); err != nil {
			return err
		}
		from = r.r
	}
}

// ends reports whether the bytes after "--<boundary>" make it a delimiter
// (1), as a space, tab, CR, LF, "--" or the body's end do, or body bytes
// (-1), or whether that is undecided until more of the body arrives (0).
// These are mime/multipart's rules.
func ends(after []byte, ended bool) int {
	switch {
	case len(after) == 0 && ended:
		return 1
	case len(after) == 0:
		return 0
	}
	switch after[0] {
	case ' ', '\t', '\r', '\n':
		return 1
	case '-':
		switch {
		case len(after) > 1 && after[1] == '-':
			return 1
		case len(after) == 1 && !ended:
			return 0
		}
	}
	return -1
}
