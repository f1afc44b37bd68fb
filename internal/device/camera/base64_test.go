package camera

import (
	"encoding/base64"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"colormatch/internal/sim"
	"colormatch/internal/vision"
	"colormatch/internal/vision/aruco"
	"colormatch/internal/vision/render"
	"colormatch/internal/wei"
)

// framePNG renders and encodes one camera frame.
func framePNG(tb testing.TB) []byte {
	tb.Helper()
	data, err := vision.EncodePNG(render.NewScene().Render(aruco.Default(), sim.NewRNG(1)))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// TestBase64MatchesStdlib checks the frame text against
// base64.StdEncoding for every input length 0–100 and for a frame, and that
// it decodes back.
func TestBase64MatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	inputs := [][]byte{framePNG(t)}
	for n := 0; n <= 100; n++ {
		p := make([]byte, n)
		rng.Read(p)
		inputs = append(inputs, p)
	}
	for _, p := range inputs {
		got, want := encodeBase64(p), base64.StdEncoding.EncodeToString(p)
		if got != want {
			t.Fatalf("%d bytes: encoded %.40q, want %.40q", len(p), got, want)
		}
		back, err := decodeBase64(got)
		if err != nil || string(back) != string(p) {
			t.Fatalf("%d bytes: decoded %d bytes, %v", len(p), len(back), err)
		}
	}
}

// TestEncodeBase64Allocs pins the frame text to one allocation: the
// string's own bytes, with no []byte-to-string copy.
func TestEncodeBase64Allocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race the strings.Builder escapes; the count only holds without it")
	}
	data := framePNG(t)
	// The first collection starts the runtime's mark workers, whose
	// allocations must not land in the count.
	runtime.GC()
	if n := testing.AllocsPerRun(5, func() { _ = encodeBase64(data) }); n != 1 {
		t.Fatalf("%v allocations, want 1", n)
	}
}

// FuzzDecodeFrame checks DecodeFrame against base64.StdEncoding on any
// text: the same bytes, or the same error exactly when the standard
// library rejects the text. Each input's bytes must also encode to the
// standard library's text.
func FuzzDecodeFrame(f *testing.F) {
	frame := base64.StdEncoding.EncodeToString(framePNG(f))
	small := base64.StdEncoding.EncodeToString([]byte("stored-block PNG, 17"))
	for _, s := range []string{
		frame, small, "", "QQ==", "QUI=", "QUJD", "QQ", "Q===", "====", "QUJD====",
		frame[:len(frame)-1], frame[:len(frame)-4], frame[:len(frame)/2+1], small[:7],
		frame[:1000] + "!" + frame[1001:], small[:5] + "=" + small[6:],
		small[:8] + "\n" + small[8:], small[:8] + "\r\n" + small[8:], small + "\n",
		small[:len(small)-2] + "=" + small[len(small)-1:], strings.Repeat("A", 4096) + "\x80AAA",
		"QR==", "QUJ=", // nonzero padding bits, which StdEncoding accepts
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := DecodeFrame(wei.Result{"image_png": s})
		want, werr := base64.StdEncoding.DecodeString(s)
		if (err != nil) != (werr != nil) || err != nil && !errors.Is(err, werr) {
			t.Fatalf("error %v, want %v", err, werr)
		}
		if err == nil && string(got) != string(want) {
			t.Fatalf("decoded %d bytes, want %d", len(got), len(want))
		}
		if enc := encodeBase64([]byte(s)); enc != base64.StdEncoding.EncodeToString([]byte(s)) {
			t.Fatalf("encoded %.40q differently", enc)
		}
	})
}

// BenchmarkEncodeBase64 measures the camera's base64 stage on a frame; its
// throughput counts the PNG bytes encoded.
func BenchmarkEncodeBase64(b *testing.B) {
	data := framePNG(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkText = encodeBase64(data)
	}
}

// BenchmarkDecodeFrame measures the application's base64 stage on a
// frame; its throughput counts the PNG bytes decoded.
func BenchmarkDecodeFrame(b *testing.B) {
	data := framePNG(b)
	res := wei.Result{"image_png": encodeBase64(data)}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := DecodeFrame(res)
		if err != nil {
			b.Fatal(err)
		}
		sinkBytes = out
	}
}

// BenchmarkFrameHandOff measures the whole camera-to-analyzer hand-off of
// a rendered frame: EncodePNG, the base64 text, DecodeFrame and DecodePNG.
func BenchmarkFrameHandOff(b *testing.B) {
	img := render.NewScene().Render(aruco.Default(), sim.NewRNG(1))
	b.SetBytes(int64(len(framePNG(b))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := vision.EncodePNG(img)
		if err != nil {
			b.Fatal(err)
		}
		frame, err := DecodeFrame(wei.Result{"image_png": encodeBase64(data)})
		if err != nil {
			b.Fatal(err)
		}
		out, err := vision.DecodePNG(frame)
		if err != nil {
			b.Fatal(err)
		}
		sinkBytes = out.Pix
	}
}

var (
	sinkText  string
	sinkBytes []byte
)
