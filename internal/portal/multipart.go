package portal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"mime/multipart"
	"net/textproto"
	"strconv"
	"strings"
)

// Records with attachments travel as one multipart/form-data body (RFC
// 7578), in both directions: ingest requests and the record fetch
// response. The first part, named "records", holds the JSON array of the
// records without their attachment bodies. Each attachment follows as a
// part of its own, named "<record index>/<attachment name>", whose body is
// the attachment's raw bytes.

// recordsPart is the form name of a body's first part.
const recordsPart = "records"

// writeRecords writes recs to mw as a multipart body and closes mw. The
// records part is encoded and every attachment name checked before any
// byte is written, so a record that cannot travel fails with nothing sent.
func writeRecords(mw *multipart.Writer, recs []Record) error {
	wires := make([]wireRecord, len(recs))
	for i, rec := range recs {
		for name := range rec.Files {
			// A part header holds no ASCII control character but tab: a line
			// break would end the header early, and a reader refuses the rest.
			if strings.ContainsFunc(name, func(r rune) bool { return r < ' ' && r != '\t' || r == 0x7f }) {
				return fmt.Errorf("%w: record %d: attachment name %q holds a control character", ErrInvalid, i, name)
			}
		}
		wires[i] = toWire(rec)
	}
	js, err := json.Marshal(wires)
	if err != nil {
		return fmt.Errorf("%w: encode records: %v", ErrInvalid, err)
	}
	h := make(textproto.MIMEHeader)
	h.Set("Content-Disposition", `form-data; name="`+recordsPart+`"`)
	h.Set("Content-Type", "application/json")
	pw, err := mw.CreatePart(h)
	if err != nil {
		return err
	}
	if _, err := pw.Write(js); err != nil {
		return err
	}
	for i, rec := range recs {
		for name, data := range rec.Files {
			pw, err := mw.CreateFormFile(strconv.Itoa(i)+"/"+name, name)
			if err != nil {
				return err
			}
			if _, err := pw.Write(data); err != nil {
				return err
			}
		}
	}
	return mw.Close()
}

// readRecords decodes a multipart body written by writeRecords (or by any
// RFC 7578 client that follows the same layout) from body, whose
// Content-Type header is contentType. Attachment sizes are derived from
// the parts; a file_sizes map in the records part is ignored.
func readRecords(contentType string, body io.Reader) ([]Record, error) {
	mediaType, params, err := mime.ParseMediaType(contentType)
	if err != nil || mediaType != "multipart/form-data" || params["boundary"] == "" {
		return nil, fmt.Errorf("content type %q: want multipart/form-data with a boundary", contentType)
	}
	mr := multipart.NewReader(body, params["boundary"])
	part, err := mr.NextPart()
	if errors.Is(err, io.EOF) {
		return nil, errors.New("no records part")
	}
	if err != nil {
		return nil, err
	}
	// FormName, not FileName: FileName keeps only the base name, so
	// "0/a/b.png" would lose its "a/".
	if form := part.FormName(); form != recordsPart {
		return nil, fmt.Errorf("first part is %q, want %q", form, recordsPart)
	}
	var scratch bytes.Buffer
	if _, err := scratch.ReadFrom(part); err != nil {
		return nil, fmt.Errorf("records part: %w", err)
	}
	var wires []wireRecord
	if err := json.Unmarshal(scratch.Bytes(), &wires); err != nil {
		return nil, fmt.Errorf("records part: %w", err)
	}
	recs := make([]Record, len(wires))
	for i, w := range wires {
		// Sizes are derived from the parts, never client-supplied: honoring
		// file_sizes would create phantom attachment metadata (counted in
		// summaries, reported by search, gone after a restart).
		recs[i] = fromWire(w)
		recs[i].sizes = nil
	}
	for {
		part, err := mr.NextPart()
		if errors.Is(err, io.EOF) {
			return recs, nil
		}
		if err != nil {
			return nil, err
		}
		form := part.FormName()
		if form == recordsPart {
			return nil, errors.New("second records part")
		}
		idx, name, ok := strings.Cut(form, "/")
		if !ok {
			return nil, fmt.Errorf("unexpected part %q", form)
		}
		i, err := strconv.Atoi(idx)
		if err != nil || i < 0 || i >= len(recs) {
			return nil, fmt.Errorf("part %q: no record %q among %d", form, idx, len(recs))
		}
		if recs[i].Files[name] != nil {
			return nil, fmt.Errorf("part %q: duplicate attachment", form)
		}
		scratch.Reset()
		if _, err := scratch.ReadFrom(part); err != nil {
			return nil, fmt.Errorf("part %q: %w", form, err)
		}
		if recs[i].Files == nil {
			recs[i].Files = map[string][]byte{}
		}
		// The scratch buffer is reused for the next part: keep a copy sized
		// to the attachment, never nil, so the duplicate check above sees
		// an empty one too.
		recs[i].Files[name] = append([]byte{}, scratch.Bytes()...)
	}
}
