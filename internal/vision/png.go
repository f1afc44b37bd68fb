package vision

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"image"
	"image/png"
)

// Camera frames cross from the camera module to the analyzer as PNG files
// in one layout, and publishing campaigns store each iteration's frame as
// its record's plate.png blob. The layout is what image/png's encoder
// writes for an opaque *image.RGBA at png.NoCompression: 8-bit truecolor,
// every scanline under filter 0, and the zlib stream (RFC 1950) in stored
// deflate blocks (RFC 1951 §3.2.4) of at most 65535 bytes, closed by an
// empty final block. Stored blocks keep the format lossless PNG at a small
// fraction of deflate's cost; σ = 2.5 sensor noise leaves a frame little to
// compress anyway (about 500 KB of its 920 KB at png.BestSpeed, for 20×
// the encode). EncodePNG writes that layout directly and DecodePNG reads
// it directly, so a frame costs one pass each way instead of a trip
// through the compress/flate and bufio machinery.
const (
	pngSignature = "\x89PNG\r\n\x1a\n"
	// ihdrEnd is the offset just past IHDR's 13 data bytes, where its CRC
	// starts: the signature, then IHDR's length and type.
	ihdrEnd = 8 + 8 + 13
	// maxStored is the most data one stored deflate block holds.
	maxStored = 65535
	// idatBuffer is the size of the bufio.Writer image/png writes the zlib
	// stream through; each flush of it is one IDAT chunk.
	idatBuffer = 1 << 15
)

// ihdrTail is IHDR after the width and height: bit depth 8, color type 2
// (truecolor), compression 0, filter method 0, no interlace.
const ihdrTail = "\x08\x02\x00\x00\x00"

var errTranslucent = errors.New("vision: EncodePNG needs an opaque image")

// EncodePNG serializes an opaque image for transport from the camera module
// to the application, as the physical camera would deliver a frame. Its
// bytes are exactly image/png's at png.NoCompression: IDAT chunks are cut
// where that encoder's 32 KiB buffer cuts the zlib stream. The file is
// written in one pass into one allocation of exactly its size. An image
// with a translucent pixel, which that encoder would store with an alpha
// channel, is an error.
func EncodePNG(img *image.RGBA) ([]byte, error) {
	b := img.Bounds()
	w, h := b.Dx(), b.Dy()
	if w <= 0 || h <= 0 || w > 1<<31-1 || h > 1<<31-1 {
		return nil, fmt.Errorf("vision: invalid PNG size %dx%d", w, h)
	}
	e := pngWriter{out: make([]byte, storedPNGSize(w, h))}
	pk := rgbPacker{pix: img.Pix[img.PixOffset(b.Min.X, b.Min.Y):], stride: img.Stride, w: w, alpha: 0xff}
	e.file(w, h, &pk)
	if pk.alpha != 0xff {
		return nil, errTranslucent
	}
	return e.out, nil
}

// storedPNGSize is the length of EncodePNG's output for a w×h image.
func storedPNGSize(w, h int) int {
	var e pngWriter
	e.file(w, h, nil)
	return e.pos
}

// pngWriter lays out a PNG file in out, or with out nil only measures it.
type pngWriter struct {
	out  []byte
	pos  int // bytes laid out so far
	open int // offset of the open chunk's length field
	n    int // data bytes in the open chunk; 0 when no IDAT chunk is open
	// closed holds the offsets of chunks closed since the last seal; next
	// closes at most two.
	closed  [2]int
	nclosed int
}

// file lays out the signature, IHDR, the zlib stream in IDAT chunks and
// IEND of a w×h frame, packing its scanlines with pk; a nil pk only
// measures.
func (e *pngWriter) file(w, h int, pk *rgbPacker) {
	if e.out != nil {
		copy(e.out, pngSignature)
	}
	e.pos = len(pngSignature)
	var ihdr [13]byte
	binary.BigEndian.PutUint32(ihdr[0:], uint32(w))
	binary.BigEndian.PutUint32(ihdr[4:], uint32(h))
	copy(ihdr[8:], ihdrTail)
	e.begin("IHDR")
	copy(e.take(len(ihdr)), ihdr[:])
	e.end()
	e.seal()

	// The zlib header: deflate with a 32 KiB window, the fastest level and
	// no dictionary (0x7801 is a multiple of 31, as RFC 1950 requires).
	e.stream([]byte{0x78, 0x01})
	raw := h * (1 + 3*w)
	adler := uint32(1)
	var hdr [5]byte
	for r := 0; r < raw; r += maxStored {
		n := min(raw-r, maxStored)
		putStoredHeader(hdr[:], n, false)
		e.stream(hdr[:])
		a, b := e.next(n)
		if pk != nil {
			pk.pack(a, r)
			pk.pack(b, r+len(a))
			adler = updateAdler32(updateAdler32(adler, a), b)
			e.seal()
		}
	}
	var tail [5 + 4]byte
	putStoredHeader(tail[:], 0, true)
	binary.BigEndian.PutUint32(tail[5:], adler)
	e.stream(tail[:])
	if e.n > 0 {
		e.end()
	}
	e.begin("IEND")
	e.end()
	e.seal()
}

// putStoredHeader writes a stored block's header for n bytes: BFINAL and
// BTYPE 00 padded to a byte, then LEN and NLEN, little-endian.
func putStoredHeader(dst []byte, n int, final bool) {
	dst[0] = 0
	if final {
		dst[0] = 1
	}
	binary.LittleEndian.PutUint16(dst[1:], uint16(n))
	binary.LittleEndian.PutUint16(dst[3:], ^uint16(n))
}

// stream lays out p as the next bytes of the zlib stream.
func (e *pngWriter) stream(p []byte) {
	a, b := e.next(len(p))
	copy(a, p)
	copy(b, p[len(a):])
	e.seal()
}

// next lays out the next l bytes of the zlib stream as image/png's
// bufio.Writer of idatBuffer bytes cuts one Write of them into IDAT chunks:
// a write that overflows a partly filled buffer fills it (a) and flushes
// it as a chunk; the rest (b) joins the buffer, unless it is longer than
// the buffer, which then sends it out whole as a chunk of its own. Either
// part may be empty; both are nil while measuring.
func (e *pngWriter) next(l int) (a, b []byte) {
	if e.n > 0 && l > idatBuffer-e.n {
		k := idatBuffer - e.n
		a = e.take(k)
		e.end()
		l -= k
	}
	if l > 0 {
		if e.n == 0 {
			e.begin("IDAT")
		}
		b = e.take(l)
		if e.n > idatBuffer {
			e.end()
		}
	}
	return a, b
}

// begin opens a chunk of the given type.
func (e *pngWriter) begin(typ string) {
	e.open = e.pos
	e.pos += 8
	e.n = 0
	if e.out != nil {
		copy(e.out[e.open+4:], typ)
	}
}

// take appends k data bytes to the open chunk and returns them.
func (e *pngWriter) take(k int) []byte {
	s := e.pos
	e.pos += k
	e.n += k
	if e.out == nil {
		return nil
	}
	return e.out[s:e.pos]
}

// end closes the open chunk and writes its length. Its data may still be
// unwritten, so its CRC waits for the next seal.
func (e *pngWriter) end() {
	if e.out != nil {
		binary.BigEndian.PutUint32(e.out[e.open:], uint32(e.n))
		e.closed[e.nclosed] = e.open
		e.nclosed++
	}
	e.pos += 4
	e.n = 0
}

// seal writes the CRC of the type and data of each chunk closed since the
// last seal, once their data are written and still in cache.
func (e *pngWriter) seal() {
	for _, at := range e.closed[:e.nclosed] {
		end := at + 8 + int(binary.BigEndian.Uint32(e.out[at:]))
		binary.BigEndian.PutUint32(e.out[end:], crc32.ChecksumIEEE(e.out[at+4:end]))
	}
	e.nclosed = 0
}

// rgbPacker writes an image's rows as PNG scanlines: a filter byte 0, then
// each pixel's red, green and blue.
type rgbPacker struct {
	pix    []uint8 // Pix from the image's top-left pixel on
	stride int
	w      int
	alpha  uint8 // AND of the alpha of every pixel packed so far
}

// pack fills dst with the scanline stream from offset r on. The stream is
// cut at block and chunk boundaries that fall anywhere in a row or pixel.
func (p *rgbPacker) pack(dst []byte, r int) {
	line := 1 + 3*p.w
	for len(dst) > 0 {
		y, c := r/line, r%line
		n := min(len(dst), line-c)
		p.packRow(dst[:n], p.pix[y*p.stride:][:4*p.w], c)
		dst, r = dst[n:], r+n
	}
}

// packRow fills dst with one scanline's bytes from offset c on.
func (p *rgbPacker) packRow(dst, row []byte, c int) {
	if c == 0 {
		dst[0] = 0
		dst, c = dst[1:], 1
	}
	k := c - 1 // offset into the row's RGB bytes
	for ; len(dst) > 0 && k%3 != 0; k++ {
		dst[0] = p.channel(row, k)
		dst = dst[1:]
	}
	n := len(dst) / 3
	p.alpha &= packPixels(dst[:3*n], row[k/3*4:][:4*n])
	for dst, k = dst[3*n:], k+3*n; len(dst) > 0; k++ {
		dst[0] = p.channel(row, k)
		dst = dst[1:]
	}
}

// channel returns RGB byte k of row. Each pixel's alpha joins p.alpha with
// its red byte, which is packed exactly once.
func (p *rgbPacker) channel(row []byte, k int) byte {
	i := k / 3 * 4
	if k%3 == 0 {
		p.alpha &= row[i+3]
	}
	return row[i+k%3]
}

// packPixels writes the red, green and blue of each RGBA pixel of src to
// dst, four pixels a step through 64-bit words, and returns the AND of
// their alphas.
func packPixels(dst, src []byte) uint8 {
	acc := ^uint64(0)
	for len(src) >= 16 && len(dst) >= 12 {
		v0 := binary.LittleEndian.Uint64(src)
		v1 := binary.LittleEndian.Uint64(src[8:])
		acc &= v0 & v1
		binary.LittleEndian.PutUint64(dst, v0&0xffffff|v0>>8&0xffffff000000|v1<<48)
		binary.LittleEndian.PutUint32(dst[8:], uint32(v1>>16)&0xff|uint32(v1>>24)&0xffffff00)
		src, dst = src[16:], dst[12:]
	}
	a := uint8(acc>>24) & uint8(acc>>56)
	for ; len(src) >= 4 && len(dst) >= 3; src, dst = src[4:], dst[3:] {
		dst[0], dst[1], dst[2] = src[0], src[1], src[2]
		a &= src[3]
	}
	return a
}

// DecodePNG parses a PNG frame back into an RGBA image whose bounds start
// at the origin. A file in EncodePNG's layout is read directly, its pixels
// unpacked in one pass over the stored blocks, after every chunk CRC and
// the payload size are checked and before each stored block's LEN and
// NLEN, filter 0 on every scanline and the Adler-32 are. Anything else,
// corrupt files included, goes to image/png, so errors and other PNGs
// decode as png.Decode has them.
func DecodePNG(data []byte) (*image.RGBA, error) {
	if img, ok := decodeStored(data); ok {
		return img, nil
	}
	src, err := png.Decode(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	// png.Decode hands back a packed, origin-anchored *image.RGBA for opaque
	// truecolor frames, which is already the result, and *image.NRGBA
	// otherwise. Opaque NRGBA is byte-identical to RGBA, so its rows are
	// copied directly instead of going through the At/Set color conversion
	// machinery (two interface calls and a color model round trip per
	// pixel); the generic path remains for any other source.
	if rgba, ok := src.(*image.RGBA); ok && rgba.Rect.Min == (image.Point{}) && rgba.Stride == 4*rgba.Rect.Dx() {
		return rgba, nil
	}
	b := src.Bounds()
	out := image.NewRGBA(image.Rect(0, 0, b.Dx(), b.Dy()))
	if nrgba, ok := src.(*image.NRGBA); ok && nrgba.Opaque() {
		copyRows(out, nrgba.Pix[nrgba.PixOffset(b.Min.X, b.Min.Y):], nrgba.Stride, b)
	} else {
		slowConvert(out, src, b)
	}
	return out, nil
}

// decodeStored reads a file in EncodePNG's layout, with IDAT chunks cut
// anywhere, and reports false for anything else. A first pass checks the
// chunk sequence (IHDR, IDAT chunks, IEND at the end of data) with every
// CRC, and that the IDAT payload is exactly the zlib stream IHDR implies,
// before the image is allocated; a second walks the stream in place.
func decodeStored(data []byte) (*image.RGBA, bool) {
	if len(data) < ihdrEnd+4 || string(data[:8]) != pngSignature ||
		string(data[8:16]) != "\x00\x00\x00\x0dIHDR" || string(data[24:ihdrEnd]) != ihdrTail ||
		crc32.ChecksumIEEE(data[12:ihdrEnd]) != binary.BigEndian.Uint32(data[ihdrEnd:]) {
		return nil, false
	}
	w := binary.BigEndian.Uint32(data[16:])
	h := binary.BigEndian.Uint32(data[20:])
	// The scanlines alone take 3 bytes a pixel.
	if w == 0 || h == 0 || w > 1<<31-1 || h > 1<<31-1 || uint64(w)*uint64(h) > uint64(len(data))/3 {
		return nil, false
	}
	raw := int(h) * (1 + 3*int(w))
	blocks := (raw + maxStored - 1) / maxStored

	idat := 0
	for pos := ihdrEnd + 4; ; {
		if len(data)-pos < 12 {
			return nil, false
		}
		n := binary.BigEndian.Uint32(data[pos:])
		if uint64(n) > uint64(len(data)-pos-12) {
			return nil, false
		}
		end := pos + 8 + int(n)
		if crc32.ChecksumIEEE(data[pos+4:end]) != binary.BigEndian.Uint32(data[end:]) {
			return nil, false
		}
		typ := string(data[pos+4 : pos+8])
		if typ == "IEND" {
			if n != 0 || end+4 != len(data) {
				return nil, false
			}
			break
		}
		if typ != "IDAT" {
			return nil, false
		}
		idat += int(n)
		pos = end + 4
	}
	if idat != 2+raw+5*(blocks+1)+4 {
		return nil, false
	}

	img := image.NewRGBA(image.Rect(0, 0, int(w), int(h)))
	u := rgbUnpacker{pix: img.Pix, w: int(w)}
	s := idatStream{data: data, pos: ihdrEnd}
	var hdr, want [5]byte
	if s.read(hdr[:2]); hdr[0] != 0x78 || hdr[1] != 0x01 {
		return nil, false
	}
	adler := uint32(1)
	for r := 0; r < raw; {
		n := min(raw-r, maxStored)
		putStoredHeader(want[:], n, false)
		if s.read(hdr[:]); hdr != want {
			return nil, false
		}
		for end := r + n; r < end; {
			p := s.next(end - r)
			if !u.unpack(p, r) {
				return nil, false
			}
			adler = updateAdler32(adler, p)
			r += len(p)
		}
	}
	putStoredHeader(want[:], 0, true)
	if s.read(hdr[:]); hdr != want {
		return nil, false
	}
	if s.read(hdr[:4]); binary.BigEndian.Uint32(hdr[:4]) != adler {
		return nil, false
	}
	return img, true
}

// idatStream reads the zlib stream in place across IDAT chunks that
// decodeStored has checked hold exactly the bytes read from it.
type idatStream struct {
	data []byte
	pos  int // next stream byte, or the CRC that ends the current chunk (IHDR's at first)
	left int // stream bytes left in the current chunk
}

// next returns the next stream bytes, at most n and at least one, up to
// the end of the current chunk.
func (s *idatStream) next(n int) []byte {
	for s.left == 0 {
		s.pos += 4 // the CRC that ends the current chunk
		s.left = int(binary.BigEndian.Uint32(s.data[s.pos:]))
		s.pos += 8
	}
	n = min(n, s.left)
	p := s.data[s.pos : s.pos+n]
	s.pos += n
	s.left -= n
	return p
}

// read fills dst from the stream.
func (s *idatStream) read(dst []byte) {
	for len(dst) > 0 {
		dst = dst[copy(dst, s.next(len(dst))):]
	}
}

// rgbUnpacker writes PNG scanlines back into an origin-anchored image's
// rows as opaque pixels.
type rgbUnpacker struct {
	pix []uint8
	w   int
}

// unpack stores the scanline stream bytes src, which start at offset r,
// and reports false if a scanline's filter byte is not 0.
func (u *rgbUnpacker) unpack(src []byte, r int) bool {
	line := 1 + 3*u.w
	for len(src) > 0 {
		y, c := r/line, r%line
		n := min(len(src), line-c)
		row := u.pix[4*u.w*y:][:4*u.w]
		s := src[:n]
		if c == 0 {
			if s[0] != 0 {
				return false
			}
			s, c = s[1:], 1
		}
		k := c - 1 // offset into the row's RGB bytes
		for ; len(s) > 0 && k%3 != 0; k++ {
			setChannel(row, k, s[0])
			s = s[1:]
		}
		m := len(s) / 3
		unpackPixels(row[k/3*4:][:4*m], s[:3*m])
		for s, k = s[3*m:], k+3*m; len(s) > 0; k++ {
			setChannel(row, k, s[0])
			s = s[1:]
		}
		src, r = src[n:], r+n
	}
	return true
}

// setChannel stores RGB byte k of a row and makes its pixel opaque.
func setChannel(row []byte, k int, v byte) {
	i := k / 3 * 4
	row[i+k%3] = v
	row[i+3] = 0xff
}

// unpackPixels writes each RGB pixel of src to dst as an opaque RGBA
// pixel, four pixels a step through 64-bit words.
func unpackPixels(dst, src []byte) {
	const opaque = 0xff000000ff000000
	for len(src) >= 12 && len(dst) >= 16 {
		v0 := binary.LittleEndian.Uint64(src)
		v1 := uint64(binary.LittleEndian.Uint32(src[8:]))
		binary.LittleEndian.PutUint64(dst, v0&0xffffff|v0<<8&0xffffff00000000|opaque)
		binary.LittleEndian.PutUint64(dst[8:], v0>>48|v1<<16&0xff0000|v1>>8<<32|opaque)
		src, dst = src[12:], dst[16:]
	}
	for ; len(src) >= 3 && len(dst) >= 4; src, dst = src[3:], dst[4:] {
		dst[0], dst[1], dst[2], dst[3] = src[0], src[1], src[2], 0xff
	}
}

// updateAdler32 updates an Adler-32 checksum (RFC 1950 §8) with p, eight bytes a
// step: over bytes b0..b7, s1 grows by their sum and s2 by 8·s1 plus
// Σ(8−i)·bi, which 16-bit lanes of one 64-bit word add up without carries.
func updateAdler32(adler uint32, p []byte) uint32 {
	const (
		mod   = 65521
		nmax  = 5552 // the most bytes before s2 could overflow 32 bits
		even  = 0x00ff00ff00ff00ff
		ones  = 0x0001000100010001
		odds  = 0x0007000500030001 // weights 7, 5, 3, 1 of the byte pairs
		shift = 48
	)
	s1, s2 := adler&0xffff, adler>>16
	for len(p) > 0 {
		q := p[:min(len(p), nmax)]
		p = p[len(q):]
		for ; len(q) >= 8; q = q[8:] {
			v := binary.LittleEndian.Uint64(q)
			e := v & even
			pairs := e + v>>8&even
			// Σ(8−i)·bi = Σj (7−2j)·(b2j + b2j+1) + Σj b2j.
			s2 += 8*s1 + uint32(pairs*odds>>shift) + uint32(e*ones>>shift)
			s1 += uint32(pairs * ones >> shift)
		}
		for _, b := range q {
			s1 += uint32(b)
			s2 += s1
		}
		s1 %= mod
		s2 %= mod
	}
	return s2<<16 | s1
}

// copyRows copies 8-bit RGBA rows from a decoded image's Pix (already offset
// to the top-left pixel of its bounds) into out.
func copyRows(out *image.RGBA, pix []uint8, stride int, b image.Rectangle) {
	w4 := b.Dx() * 4
	for y := 0; y < b.Dy(); y++ {
		i := y * stride
		copy(out.Pix[y*out.Stride:y*out.Stride+w4], pix[i:i+w4])
	}
}

// slowConvert is the generic per-pixel conversion path for source types
// without a directly copyable layout.
func slowConvert(out *image.RGBA, src image.Image, b image.Rectangle) {
	for y := 0; y < b.Dy(); y++ {
		for x := 0; x < b.Dx(); x++ {
			out.Set(x, y, src.At(b.Min.X+x, b.Min.Y+y))
		}
	}
}
