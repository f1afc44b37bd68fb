package portal

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"
	"strconv"
	"strings"

	"colormatch/internal/form"
)

// Records with attachments travel as one records body, in both
// directions: ingest requests and the record fetch response. It is the
// framing of internal/form with a head part named "records", holding the
// JSON array of the records without their attachment bodies. Each
// attachment follows as a raw part named "<record index>/<attachment
// name>".

// recordsPart is the form name of a body's head part.
const recordsPart = "records"

// recordsBody frames recs as a records body. The records part is encoded
// and every attachment name checked first, so a record that cannot travel
// fails before anything is sent. The body refers to the attachments'
// bytes; it copies none of them.
func recordsBody(recs []Record) (*form.Body, error) {
	wires := make([]wireRecord, len(recs))
	var parts []form.Part
	for i, rec := range recs {
		// Parts go by record, then by name, so one batch always encodes to
		// the same bytes.
		for _, name := range slices.Sorted(maps.Keys(rec.Files)) {
			if err := form.CheckName(name); err != nil {
				return nil, fmt.Errorf("%w: record %d: %v", ErrInvalid, i, err)
			}
			parts = append(parts, form.Part{Name: strconv.Itoa(i) + "/" + name, Data: rec.Files[name]})
		}
		wires[i] = toWire(rec)
	}
	js, err := json.Marshal(wires)
	if err != nil {
		return nil, fmt.Errorf("%w: encode records: %v", ErrInvalid, err)
	}
	return form.NewBody(recordsPart, js, parts)
}

// readRecords decodes a records body from body, whose Content-Type header
// is contentType. Attachment sizes are derived from the parts; a
// file_sizes map in the records part is ignored.
func readRecords(contentType string, body io.Reader) ([]Record, error) {
	r, head, err := form.NewReader(contentType, body, recordsPart)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var wires []wireRecord
	if err := json.Unmarshal(head, &wires); err != nil {
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
		part, data, err := r.Next()
		if errors.Is(err, io.EOF) {
			return recs, nil
		}
		if err != nil {
			return nil, err
		}
		idx, name, ok := strings.Cut(part, "/")
		if !ok {
			return nil, fmt.Errorf("unexpected part %q", part)
		}
		// Only the canonical index names a record, so "00/x" cannot repeat
		// "0/x" behind the reader's duplicate check.
		i, err := strconv.Atoi(idx)
		if err != nil || i < 0 || i >= len(recs) || strconv.Itoa(i) != idx {
			return nil, fmt.Errorf("part %q: no record %q among %d", part, idx, len(recs))
		}
		if recs[i].Files == nil {
			recs[i].Files = map[string][]byte{}
		}
		// The reader reuses its buffer for the next part: keep a copy sized
		// to the attachment, never nil, so an empty attachment is kept too.
		recs[i].Files[name] = append([]byte{}, data...)
	}
}
