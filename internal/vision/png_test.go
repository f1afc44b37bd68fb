package vision

import (
	"bytes"
	"encoding/binary"
	"hash/adler32"
	"hash/crc32"
	"image"
	"image/color/palette"
	"image/png"
	"math/rand"
	"runtime"
	"testing"

	"colormatch/internal/sim"
	"colormatch/internal/vision/aruco"
	"colormatch/internal/vision/render"
)

func TestPNGRoundTrip(t *testing.T) {
	rng := sim.NewRNG(6)
	scene, _ := buildScene(t, strongFractions(16), 0, 0, rng)
	a := NewAnalyzer()
	img := scene.Render(a.Dict, nil)
	data, err := EncodePNG(img)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodePNG(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Bounds() != img.Bounds() {
		t.Fatalf("bounds changed: %v vs %v", back.Bounds(), img.Bounds())
	}
	for i := range img.Pix {
		if img.Pix[i] != back.Pix[i] {
			t.Fatal("PNG round trip not lossless")
		}
	}
	if _, err := DecodePNG([]byte("not a png")); err == nil {
		t.Fatal("garbage decoded")
	}
}

// pngShapes are the image shapes the codec tests cover: a camera frame, a
// pixel, rows longer than a stored block (22000×3), exactly one and two
// full blocks of scanlines (428×51 and 428×102, 65535 bytes a block), one
// byte short of a block (10922×2), and pseudo-random shapes up to 540 KB
// of scanlines, so stored blocks and IDAT chunks begin at every kind of
// offset within a row and a pixel.
func pngShapes() [][2]int {
	shapes := [][2]int{{640, 480}, {1, 1}, {33, 7}, {22000, 3}, {428, 51}, {428, 102}, {10922, 2}}
	rng := rand.New(rand.NewSource(28))
	for i := 0; i < 120; i++ {
		shapes = append(shapes, [2]int{1 + rng.Intn(3000), 1 + rng.Intn(60)})
	}
	return shapes
}

// opaqueImage returns a w×h image of pseudo-random opaque pixels. With sub
// set it is a sub-image whose bounds do not start at the origin.
func opaqueImage(rng *rand.Rand, w, h int, sub bool) *image.RGBA {
	r := image.Rect(0, 0, w, h)
	if sub {
		r.Max = r.Max.Add(image.Pt(3, 2))
	}
	img := image.NewRGBA(r)
	rng.Read(img.Pix)
	for i := 3; i < len(img.Pix); i += 4 {
		img.Pix[i] = 0xff
	}
	if sub {
		return img.SubImage(image.Rect(2, 1, 2+w, 1+h)).(*image.RGBA)
	}
	return img
}

// TestEncodePNGSizesBuffer checks EncodePNG against image/png at
// png.NoCompression on every pngShapes shape, every fourth one a
// sub-image: the bytes are the same, and they fill an allocation of
// exactly storedPNGSize.
func TestEncodePNGSizesBuffer(t *testing.T) {
	enc := png.Encoder{CompressionLevel: png.NoCompression}
	rng := rand.New(rand.NewSource(1))
	for i, sz := range pngShapes() {
		w, h := sz[0], sz[1]
		img := opaqueImage(rng, w, h, i%4 == 3)
		data, err := EncodePNG(img)
		if err != nil {
			t.Fatalf("%d×%d: %v", w, h, err)
		}
		var want bytes.Buffer
		if err := enc.Encode(&want, img); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, want.Bytes()) {
			n := 0
			for n < min(len(data), want.Len()) && data[n] == want.Bytes()[n] {
				n++
			}
			t.Fatalf("%d×%d: %d bytes differ from image/png's %d from offset %d", w, h, len(data), want.Len(), n)
		}
		if n := storedPNGSize(w, h); len(data) != n || cap(data) != n {
			t.Fatalf("%d×%d: %d PNG bytes in a buffer of %d, storedPNGSize %d", w, h, len(data), cap(data), n)
		}
	}
}

// TestEncodePNGRejectsTranslucent plants one translucent pixel at each
// place the scanline stream is cut into stored blocks and IDAT chunks,
// where the pixel's bytes may be split, and at the first and last pixel.
// EncodePNG must refuse every one, as it refuses an empty image.
func TestEncodePNGRejectsTranslucent(t *testing.T) {
	if _, err := EncodePNG(image.NewRGBA(image.Rectangle{})); err == nil {
		t.Fatal("encoded an empty image")
	}
	rng := rand.New(rand.NewSource(2))
	for _, sz := range [][2]int{{640, 480}, {22000, 3}, {33, 7}} {
		w, h := sz[0], sz[1]
		img := opaqueImage(rng, w, h, false)
		data, err := EncodePNG(img)
		if err != nil {
			t.Fatal(err)
		}
		line := 1 + 3*w
		pixels := map[int]bool{0: true, w*h - 1: true}
		for _, r := range scanlineCuts(t, data, h*line) {
			for _, d := range []int{-3, -2, -1, 0} {
				if c := (r + d) % line; r+d >= 0 && c > 0 {
					pixels[(r+d)/line*w+(c-1)/3] = true
				}
			}
		}
		for p := range pixels {
			img.Pix[4*p+3] = 0xfe
			if _, err := EncodePNG(img); err == nil {
				t.Fatalf("%d×%d: pixel %d translucent, encoded anyway", w, h, p)
			}
			img.Pix[4*p+3] = 0xff
		}
	}
}

// scanlineCuts returns the offsets at which the raw-byte scanline stream
// of a stored-block file is cut by a block header or an IDAT chunk boundary.
func scanlineCuts(t *testing.T, data []byte, raw int) []int {
	t.Helper()
	var cuts []int
	z := 0 // zlib stream offset
	for _, c := range splitChunks(t, data) {
		if c.typ != "IDAT" {
			continue
		}
		if q := z - 2; q > 0 && q%(5+maxStored) >= 5 {
			cuts = append(cuts, q/(5+maxStored)*maxStored+q%(5+maxStored)-5)
		}
		z += len(c.data)
	}
	for r := maxStored; r < raw; r += maxStored {
		cuts = append(cuts, r)
	}
	return cuts
}

type pngChunk struct {
	typ  string
	data []byte
}

// splitChunks returns the chunks of a PNG file, ignoring their CRCs.
func splitChunks(t testing.TB, data []byte) []pngChunk {
	t.Helper()
	var out []pngChunk
	for p := 8; p < len(data); {
		n := int(binary.BigEndian.Uint32(data[p:]))
		out = append(out, pngChunk{string(data[p+4 : p+8]), data[p+8 : p+8+n]})
		p += 12 + n
	}
	return out
}

// joinChunks writes a PNG file of the chunks, each with its correct CRC.
func joinChunks(chunks []pngChunk) []byte {
	out := []byte(pngSignature)
	for _, c := range chunks {
		out = binary.BigEndian.AppendUint32(out, uint32(len(c.data)))
		out = append(out, c.typ...)
		out = append(out, c.data...)
		out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(out[len(out)-len(c.data)-4:]))
	}
	return out
}

// recut joins a file's IDAT payload again as chunks of the given sizes,
// the last taking the rest.
func recut(t testing.TB, data []byte, sizes ...int) []byte {
	chunks := splitChunks(t, data)
	var z []byte
	for _, c := range chunks[1 : len(chunks)-1] {
		z = append(z, c.data...)
	}
	out := chunks[:1:1]
	for _, n := range sizes {
		n = min(n, len(z))
		out = append(out, pngChunk{"IDAT", z[:n]})
		z = z[n:]
	}
	out = append(out, pngChunk{"IDAT", z}, chunks[len(chunks)-1])
	return joinChunks(out)
}

// TestDecodePNGReadsStoredLayout checks that the one-pass reader, not
// image/png, decodes EncodePNG's output for every pngShapes shape, and
// the same zlib stream cut into other IDAT chunks (one chunk, small and
// empty chunks), to the encoded pixels.
func TestDecodePNGReadsStoredLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i, sz := range pngShapes() {
		w, h := sz[0], sz[1]
		img := opaqueImage(rng, w, h, false)
		data, err := EncodePNG(img)
		if err != nil {
			t.Fatal(err)
		}
		files := [][]byte{data}
		if i < 10 {
			files = append(files, recut(t, data), recut(t, data, 0, 1, 0, 3, 5, 7, 11, 13, 0), recut(t, data, 100000, 0))
		}
		for j, f := range files {
			got, ok := decodeStored(f)
			if !ok {
				t.Fatalf("%d×%d cut %d: not read as the stored layout", w, h, j)
			}
			if got.Rect != img.Rect || !bytes.Equal(got.Pix, img.Pix) {
				t.Fatalf("%d×%d cut %d: pixels differ", w, h, j)
			}
		}
	}
}

// TestEncodePNGAllocs pins the frame encode to one allocation of the
// file's exact size, and the stored-layout decode to the image.
func TestEncodePNGAllocs(t *testing.T) {
	img := opaqueImage(rand.New(rand.NewSource(4)), 640, 480, false)
	data, err := EncodePNG(img)
	if err != nil {
		t.Fatal(err)
	}
	// The first collection starts the runtime's mark workers, whose
	// allocations must not land in a count.
	runtime.GC()
	if n := testing.AllocsPerRun(5, func() { _, _ = EncodePNG(img) }); n != 1 {
		t.Fatalf("EncodePNG: %v allocations, want 1", n)
	}
	if b := allocBytes(5, func() { _, _ = EncodePNG(img) }); b > uint64(len(data))*101/100 {
		t.Fatalf("EncodePNG: %d bytes allocated for a %d-byte file", b, len(data))
	}
	if n := testing.AllocsPerRun(5, func() { _, _ = DecodePNG(data) }); n > 2 {
		t.Fatalf("DecodePNG: %v allocations, want at most 2", n)
	}
	if b := allocBytes(5, func() { _, _ = DecodePNG(data) }); b > uint64(len(img.Pix))+64<<10 {
		t.Fatalf("DecodePNG: %d bytes allocated for a %d-byte image", b, len(img.Pix))
	}
}

// allocBytes returns the bytes f allocates per call.
func allocBytes(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestAdler32MatchesStdlib compares the word-at-a-time Adler-32 with
// hash/adler32 over random and all-0xff data (the largest sums) of many
// lengths, fed whole and in pieces.
func TestAdler32MatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 7, 8, 9, 5551, 5552, 5553, 3*5552 + 7, 70000} {
		for _, fill := range []bool{false, true} {
			p := make([]byte, n)
			rng.Read(p)
			if fill {
				for i := range p {
					p[i] = 0xff
				}
			}
			want := adler32.Checksum(p)
			if got := updateAdler32(1, p); got != want {
				t.Fatalf("n=%d: %08x, want %08x", n, got, want)
			}
			sum := uint32(1)
			for q := p; len(q) > 0; {
				k := min(len(q), 1+rng.Intn(9000))
				sum, q = updateAdler32(sum, q[:k]), q[k:]
			}
			if sum != want {
				t.Fatalf("n=%d in pieces: %08x, want %08x", n, sum, want)
			}
		}
	}
}

// claimsAlpha hides an opaque NRGBA image's opacity from png.Encode, which
// then writes an alpha channel that decodes to an opaque *image.NRGBA.
type claimsAlpha struct{ *image.NRGBA }

func (claimsAlpha) Opaque() bool { return false }

// TestDecodeFastPathMatchesSlowPath decodes representative PNG payloads —
// opaque truecolor (decodes to *image.RGBA, returned as is), opaque NRGBA
// (rows copied), NRGBA with partial alpha, and a paletted image (neither
// fast path applies) — and checks the fast paths produce byte-identical
// output to the generic At/Set conversion.
func TestDecodeFastPathMatchesSlowPath(t *testing.T) {
	rng := sim.NewRNG(8)
	scene, _ := buildScene(t, strongFractions(32), 0, 0, rng)
	a := NewAnalyzer()
	opaque, err := EncodePNG(scene.Render(a.Dict, rng.Derive("px")))
	if err != nil {
		t.Fatal(err)
	}

	nrgba := image.NewNRGBA(image.Rect(0, 0, 61, 37))
	for i := range nrgba.Pix {
		nrgba.Pix[i] = uint8(rng.Intn(256))
	}
	var nbuf bytes.Buffer
	if err := png.Encode(&nbuf, nrgba); err != nil {
		t.Fatal(err)
	}

	opaqueN := image.NewNRGBA(image.Rect(0, 0, 29, 13))
	for i := range opaqueN.Pix {
		opaqueN.Pix[i] = uint8(rng.Intn(256))
	}
	for i := 3; i < len(opaqueN.Pix); i += 4 {
		opaqueN.Pix[i] = 255
	}
	var obuf bytes.Buffer
	if err := png.Encode(&obuf, claimsAlpha{opaqueN}); err != nil {
		t.Fatal(err)
	}

	pal := image.NewPaletted(image.Rect(0, 0, 40, 25), palette.Plan9)
	for i := range pal.Pix {
		pal.Pix[i] = uint8(rng.Intn(len(palette.Plan9)))
	}
	var pbuf bytes.Buffer
	if err := png.Encode(&pbuf, pal); err != nil {
		t.Fatal(err)
	}

	for name, data := range map[string][]byte{
		"opaque-rgba":  opaque,
		"opaque-nrgba": obuf.Bytes(),
		"nrgba-alpha":  nbuf.Bytes(),
		"paletted":     pbuf.Bytes(),
	} {
		got, err := DecodePNG(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		src, err := png.Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b := src.Bounds()
		want := image.NewRGBA(image.Rect(0, 0, b.Dx(), b.Dy()))
		slowConvert(want, src, b)
		if got.Bounds() != want.Bounds() {
			t.Fatalf("%s: bounds %v vs %v", name, got.Bounds(), want.Bounds())
		}
		for i := range want.Pix {
			if got.Pix[i] != want.Pix[i] {
				t.Fatalf("%s: fast path diverges from At/Set conversion at byte %d", name, i)
			}
		}
	}
}

// FuzzDecodePNG checks DecodePNG against png.Decode plus the conversion
// to an origin-anchored *image.RGBA on any input: the same bounds and
// pixels, or png.Decode's error exactly when png.Decode errs. Inputs whose
// header promises more than a million pixels are skipped, because
// png.Decode allocates the image before it reads any pixel data.
func FuzzDecodePNG(f *testing.F) {
	frame, err := EncodePNG(render.NewScene().Render(aruco.Default(), sim.NewRNG(1)))
	if err != nil {
		f.Fatal(err)
	}
	small, err := EncodePNG(opaqueImage(rand.New(rand.NewSource(6)), 33, 7, false))
	if err != nil {
		f.Fatal(err)
	}
	for _, data := range [][]byte{frame, small} {
		for _, seed := range corruptions(f, data) {
			f.Add(seed)
		}
	}
	var deflated bytes.Buffer
	if err := png.Encode(&deflated, opaqueImage(rand.New(rand.NewSource(7)), 40, 30, false)); err != nil {
		f.Fatal(err)
	}
	f.Add(deflated.Bytes())
	f.Add([]byte("not a png"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if cfg, err := png.DecodeConfig(bytes.NewReader(data)); err == nil && cfg.Width*cfg.Height > 1e6 {
			t.Skip("png.Decode would allocate the whole image first")
		}
		got, err := DecodePNG(data)
		src, werr := png.Decode(bytes.NewReader(data))
		if (err != nil) != (werr != nil) || err != nil && err.Error() != werr.Error() {
			t.Fatalf("error %v, want %v", err, werr)
		}
		if err != nil {
			return
		}
		b := src.Bounds()
		want := image.NewRGBA(image.Rect(0, 0, b.Dx(), b.Dy()))
		slowConvert(want, src, b)
		if got.Rect != want.Rect || got.Stride != want.Stride || !bytes.Equal(got.Pix, want.Pix) {
			t.Fatalf("decoded %v differently from png.Decode's %v", got.Rect, want.Rect)
		}
	})
}

// corruptions returns a stored-layout file, the same zlib stream in other
// IDAT cuts, truncations, and files that flip one bit of a CRC, of the
// first block's LEN, of a filter byte and of the Adler-32. Each flip comes
// raw, and again with every CRC (and, past the filter byte, the Adler-32)
// made to match, so each of the reader's checks alone must catch it. Three
// files have every checksum valid but an IDAT payload of the wrong size:
// IHDR's height one row more or less, or the last IDAT chunk dropped.
func corruptions(t testing.TB, data []byte) [][]byte {
	const first = ihdrEnd + 4 + 8 // the first IDAT chunk's data
	chunks := splitChunks(t, data)
	w := int(binary.BigEndian.Uint32(chunks[0].data))
	lenFlip := flipBit(data, first+3, 0x01)
	filterRow1 := first + 2 + 5 + 1 + 3*w // the second scanline's filter byte
	filter := flipBit(data, filterRow1, 0x01)
	badFilter := bytes.Clone(data)
	badFilter[filterRow1] = 5
	adler := flipBit(data, len(data)-20, 0x10)
	return [][]byte{
		data, recut(t, data), recut(t, data, 1, 0, 2, 3),
		data[:len(data)-1], data[:len(data)-12], data[:len(data)-20], data[:len(data)/2], data[:first+9], data[:40], data[:8],
		append(bytes.Clone(data), 0),
		flipBit(data, len(data)-1, 0x80), flipBit(data, first+len(chunks[1].data), 0x01), flipBit(data, ihdrEnd, 0x02),
		lenFlip, joinChunks(splitChunks(t, lenFlip)),
		filter, joinChunks(splitChunks(t, filter)), withAdler(t, filter), withAdler(t, badFilter),
		adler, joinChunks(splitChunks(t, adler)),
		withHeight(t, data, 1), withHeight(t, data, -1), withoutLastIDAT(t, data),
	}
}

// flipBit returns a copy of data with bit flipped at off.
func flipBit(data []byte, off int, bit byte) []byte {
	c := bytes.Clone(data)
	c[off] ^= bit
	return c
}

// withHeight returns data with IHDR's height changed by d rows and its CRC
// made to match.
func withHeight(t testing.TB, data []byte, d int) []byte {
	c := bytes.Clone(data)
	binary.BigEndian.PutUint32(c[20:], binary.BigEndian.Uint32(c[20:])+uint32(d))
	return joinChunks(splitChunks(t, c))
}

// withoutLastIDAT returns data without its last IDAT chunk.
func withoutLastIDAT(t testing.TB, data []byte) []byte {
	chunks := splitChunks(t, data)
	n := len(chunks)
	return joinChunks(append(chunks[:n-2:n-2], chunks[n-1]))
}

// TestDecodeStoredRefusesBeforeAllocating checks that files with a broken
// chunk sequence or CRC, or an IDAT payload of the wrong size, are refused
// by the first pass, before the image is allocated.
func TestDecodeStoredRefusesBeforeAllocating(t *testing.T) {
	data, err := EncodePNG(opaqueImage(rand.New(rand.NewSource(8)), 640, 480, false))
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][]byte{
		"truncated":      data[:len(data)-1],
		"IDAT CRC":       flipBit(data, ihdrEnd+4+8+1000, 0x04),
		"row short":      withHeight(t, data, 1),
		"row long":       withHeight(t, data, -1),
		"last IDAT gone": withoutLastIDAT(t, data),
	} {
		n := testing.AllocsPerRun(3, func() {
			if _, ok := decodeStored(bad); ok {
				t.Fatalf("%s: read as the stored layout", name)
			}
		})
		if n != 0 {
			t.Fatalf("%s: %v allocations before refusing", name, n)
		}
	}
}

// withAdler returns a stored-layout file with the Adler-32 of its
// scanline bytes and every CRC made to match, in the same IDAT cuts.
func withAdler(t testing.TB, data []byte) []byte {
	chunks := splitChunks(t, bytes.Clone(data))
	var z []byte
	for _, c := range chunks[1 : len(chunks)-1] {
		z = append(z, c.data...)
	}
	var raw []byte
	for p := 2; ; {
		n := int(binary.LittleEndian.Uint16(z[p+1:]))
		raw = append(raw, z[p+5:p+5+n]...)
		final := z[p]&1 == 1
		p += 5 + n
		if final {
			break
		}
	}
	binary.BigEndian.PutUint32(z[len(z)-4:], adler32.Checksum(raw))
	for _, c := range chunks[1 : len(chunks)-1] {
		copy(c.data, z)
		z = z[len(c.data):]
	}
	return joinChunks(chunks)
}
