package portal

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The snapshot segment's binary format. The append-only segment log must
// stay line-oriented JSON — torn-tail repair depends on newline-delimited,
// individually parseable records — but a snapshot is published whole by an
// atomic rename and can never legally tear, so it trades that property for
// decode speed: replaying a compacted archive skips the JSON state machine
// (the dominant cost of restart, see BenchmarkReplay) in favor of a flat
// tag-length-value read.
//
// Layout:
//
//	magic "CMSNAP1\n"
//	uvarint count        total records
//	uvarint count        total records again: the ID watermark, which
//	                     equals the count as a record's ID is its position
//	uvarint blob         blob-number watermark covering these records
//	uvarint chunks       number of record chunks
//	per chunk: uvarint recs, uvarint bytes
//	chunk payloads, concatenated
//
// Records are grouped into fixed-count chunks whose byte lengths live in
// the header, so replay can hand each chunk to a different worker and
// decode into disjoint regions of one preallocated slice — the snapshot
// parallelizes like the JSONL segments do, without scanning for record
// boundaries first.
//
// Each record:
//
//	str ID, str Experiment, varint Run
//	varint unix-seconds, uvarint nanoseconds   (decoded as UTC)
//	uvarint nFields, per field: str key, value
//	uvarint nBlobs,  per blob:  str name, str file, uvarint size
//	str Batch
//
// Values are tagged: 0 nil, 1 false, 2 true, 3 float64 (8 bytes LE),
// 4 string, 5 array (uvarint n + values), 6 object (uvarint n + key/value
// pairs). These are exactly the types JSON decoding produces, which keeps
// the compacted and uncompacted replay of the same record byte-for-byte
// equivalent in memory; integer inputs are stored as float64 for the same
// reason. Map keys are written sorted, so identical stores compact to
// identical snapshots.

const (
	snapMagic        = "CMSNAP1\n"
	snapChunkRecords = 1024
)

const (
	tagNil = iota
	tagFalse
	tagTrue
	tagFloat
	tagString
	tagArray
	tagObject
)

func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendValue(b []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(b, tagNil), nil
	case bool:
		if x {
			return append(b, tagTrue), nil
		}
		return append(b, tagFalse), nil
	case float64:
		b = append(b, tagFloat)
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(x)), nil
	case int:
		return appendValue(b, float64(x))
	case int64:
		return appendValue(b, float64(x))
	case float32:
		return appendValue(b, float64(x))
	case string:
		return appendStr(append(b, tagString), x), nil
	case []any:
		b = binary.AppendUvarint(append(b, tagArray), uint64(len(x)))
		var err error
		for _, el := range x {
			if b, err = appendValue(b, el); err != nil {
				return nil, err
			}
		}
		return b, nil
	case map[string]any:
		b = binary.AppendUvarint(append(b, tagObject), uint64(len(x)))
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var err error
		for _, k := range keys {
			if b, err = appendValue(appendStr(b, k), x[k]); err != nil {
				return nil, err
			}
		}
		return b, nil
	}
	return nil, fmt.Errorf("unsupported field value type %T", v)
}

func appendRecord(b []byte, sr *segRecord) ([]byte, error) {
	b = appendStr(b, sr.ID)
	b = appendStr(b, sr.Experiment)
	b = binary.AppendVarint(b, int64(sr.Run))
	b = binary.AppendVarint(b, sr.Time.Unix())
	b = binary.AppendUvarint(b, uint64(sr.Time.Nanosecond()))
	var err error
	if b, err = appendValue(b, sr.Fields); err != nil {
		return nil, fmt.Errorf("record %s: %w", sr.ID, err)
	}
	b = binary.AppendUvarint(b, uint64(len(sr.Blobs)))
	names := make([]string, 0, len(sr.Blobs))
	for name := range sr.Blobs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ref := sr.Blobs[name]
		b = appendStr(b, name)
		b = appendStr(b, ref.File)
		b = binary.AppendUvarint(b, uint64(ref.Size))
	}
	return appendStr(b, sr.Batch), nil
}

// snapEncode renders a snapshot file as its header bytes plus record
// chunks; the caller concatenates them (the split exists so the crash-test
// hook can flush a genuinely partial file).
func snapEncode(head snapHeader, recs []*segRecord) (header []byte, chunks [][]byte, err error) {
	for base := 0; base < len(recs); base += snapChunkRecords {
		end := base + snapChunkRecords
		if end > len(recs) {
			end = len(recs)
		}
		var chunk []byte
		for _, sr := range recs[base:end] {
			if chunk, err = appendRecord(chunk, sr); err != nil {
				return nil, nil, err
			}
		}
		chunks = append(chunks, chunk)
	}
	header = []byte(snapMagic)
	header = binary.AppendUvarint(header, uint64(len(recs)))
	header = binary.AppendUvarint(header, uint64(len(recs)))
	header = binary.AppendUvarint(header, uint64(head.Blob))
	header = binary.AppendUvarint(header, uint64(len(chunks)))
	n := 0
	for _, chunk := range chunks {
		recCount := snapChunkRecords
		if rem := len(recs) - n; rem < recCount {
			recCount = rem
		}
		n += recCount
		header = binary.AppendUvarint(header, uint64(recCount))
		header = binary.AppendUvarint(header, uint64(len(chunk)))
	}
	return header, chunks, nil
}

// snapReader is a bounds-checked cursor over one chunk's bytes.
type snapReader struct {
	b   []byte
	pos int
	err error
}

func (r *snapReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("truncated %s at offset %d", what, r.pos)
	}
}

func (r *snapReader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.pos += n
	return v
}

func (r *snapReader) varint(what string) int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.pos:])
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.pos += n
	return v
}

func (r *snapReader) str(what string) string {
	n := int(r.uvarint(what))
	if r.err != nil {
		return ""
	}
	if n < 0 || r.pos+n > len(r.b) {
		r.fail(what)
		return ""
	}
	s := string(r.b[r.pos : r.pos+n])
	r.pos += n
	return s
}

func (r *snapReader) value() any {
	if r.err != nil {
		return nil
	}
	if r.pos >= len(r.b) {
		r.fail("value tag")
		return nil
	}
	tag := r.b[r.pos]
	r.pos++
	switch tag {
	case tagNil:
		return nil
	case tagFalse:
		return false
	case tagTrue:
		return true
	case tagFloat:
		if r.pos+8 > len(r.b) {
			r.fail("float value")
			return nil
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.pos:]))
		r.pos += 8
		return v
	case tagString:
		return r.str("string value")
	case tagArray:
		n := int(r.uvarint("array length"))
		if r.err != nil || n > len(r.b)-r.pos {
			r.fail("array length")
			return nil
		}
		out := make([]any, n)
		for i := range out {
			out[i] = r.value()
		}
		return out
	case tagObject:
		n := int(r.uvarint("object length"))
		if r.err != nil || n > len(r.b)-r.pos {
			r.fail("object length")
			return nil
		}
		out := make(map[string]any, n)
		for i := 0; i < n; i++ {
			k := r.str("object key")
			out[k] = r.value()
		}
		return out
	}
	r.err = fmt.Errorf("unknown value tag %d at offset %d", tag, r.pos-1)
	return nil
}

func (r *snapReader) record(sr *segRecord) {
	sr.ID = r.str("record id")
	sr.Experiment = r.str("experiment")
	sr.Run = int(r.varint("run"))
	sec := r.varint("time seconds")
	nsec := r.uvarint("time nanoseconds")
	sr.Time = time.Unix(sec, int64(nsec)).UTC()
	if v := r.value(); v != nil {
		fields, ok := v.(map[string]any)
		if !ok {
			r.fail("fields object")
			return
		}
		sr.Fields = fields
	}
	nBlobs := int(r.uvarint("blob count"))
	if r.err != nil || nBlobs > len(r.b)-r.pos {
		r.fail("blob count")
		return
	}
	if nBlobs > 0 {
		sr.Blobs = make(map[string]blobRef, nBlobs)
		for i := 0; i < nBlobs; i++ {
			name := r.str("blob name")
			file := r.str("blob file")
			size := r.uvarint("blob size")
			sr.Blobs[name] = blobRef{File: file, Size: int(size)}
		}
	}
	sr.Batch = r.str("batch key")
}

// snapDecode parses a snapshot file, fanning chunk decoding out over the
// worker pool. Any structural damage — bad magic, truncation, trailing
// garbage, a record count mismatch — fails the whole decode: a snapshot was
// written and fsynced as one unit, so damage is corruption, never a tear.
func snapDecode(data []byte, workers int) (snapHeader, []segRecord, error) {
	head := snapHeader{Snap: true}
	if len(data) < len(snapMagic) || string(data[:len(snapMagic)]) != snapMagic {
		return head, nil, fmt.Errorf("bad snapshot magic")
	}
	r := &snapReader{b: data, pos: len(snapMagic)}
	head.Count = int(r.uvarint("record count"))
	r.uvarint("record count")
	head.Blob = int(r.uvarint("blob watermark"))
	nChunks := int(r.uvarint("chunk count"))
	if r.err != nil {
		return head, nil, r.err
	}
	type chunkMeta struct{ recs, off, end, recBase int }
	if nChunks > len(data) { // implies a corrupt count; avoid huge allocs
		return head, nil, fmt.Errorf("implausible chunk count %d", nChunks)
	}
	metas := make([]chunkMeta, nChunks)
	recBase := 0
	for i := range metas {
		metas[i].recs = int(r.uvarint("chunk record count"))
		metas[i].end = int(r.uvarint("chunk byte length"))
		metas[i].recBase = recBase
		recBase += metas[i].recs
	}
	if r.err != nil {
		return head, nil, r.err
	}
	if recBase != head.Count {
		return head, nil, fmt.Errorf("chunk table sums to %d records, header says %d", recBase, head.Count)
	}
	off := r.pos
	for i := range metas {
		metas[i].off = off
		if metas[i].end > len(data)-off {
			return head, nil, fmt.Errorf("chunk %d overruns the file", i)
		}
		off += metas[i].end
		metas[i].end = off
	}
	if off != len(data) {
		return head, nil, fmt.Errorf("%d trailing bytes after last chunk", len(data)-off)
	}

	recs := make([]segRecord, head.Count)
	errs := make([]error, nChunks)
	decodeChunkAt := func(i int) {
		m := metas[i]
		cr := &snapReader{b: data[:m.end], pos: m.off}
		for ri := 0; ri < m.recs && cr.err == nil; ri++ {
			cr.record(&recs[m.recBase+ri])
		}
		if cr.err == nil && cr.pos != m.end {
			cr.err = fmt.Errorf("%d stray bytes in chunk %d", m.end-cr.pos, i)
		}
		errs[i] = cr.err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers <= 1 || nChunks <= 1 {
		for i := range metas {
			decodeChunkAt(i)
		}
	} else {
		work := make(chan int)
		var wg sync.WaitGroup
		if workers > nChunks {
			workers = nChunks
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range work {
					decodeChunkAt(i)
				}
			}()
		}
		for i := range metas {
			work <- i
		}
		close(work)
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return head, nil, err
		}
	}
	return head, recs, nil
}
