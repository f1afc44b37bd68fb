package wei

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"colormatch/internal/form"
)

// stringsModule answers "strings" with a result whose top-level strings
// include an empty one, one holding every byte value, and one under a key
// no part name can hold.
func stringsModule() *Base {
	every := make([]byte, 256)
	for i := range every {
		every[i] = byte(i)
	}
	b := NewBase("dev", "test_device", "returns strings")
	b.Register(ActionInfo{Name: "strings"}, func(ctx context.Context, args Args) (Result, error) {
		return Result{
			"bytes":     string(every),
			"empty":     "",
			"a/b.png":   "slash in the key",
			"ctl\x01ey": "stays in the head",
			"n":         1.5,
			"flag":      true,
			"nothing":   nil,
			"list":      []any{"a", 2.0},
			"nested":    map[string]any{"s": "inner strings stay in the head"},
		}, nil
	})
	return b
}

// TestActionResponseIsMultipart: a 200 action response is one form body,
// its "response" head first with the result less its top-level strings,
// then one raw part per string in key order; the client rebuilds the same
// Result the module returned.
func TestActionResponseIsMultipart(t *testing.T) {
	reg := NewRegistry()
	reg.Add(stringsModule())
	srv := httptest.NewServer(ServeModules(reg))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/modules/dev/action", "application/json",
		strings.NewReader(`{"action":"strings"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	r, head, err := form.NewReader(resp.Header.Get("Content-Type"), resp.Body, responsePart)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	const wantHead = `{"result":{"ctl\u0001ey":"stays in the head","flag":true,"list":["a",2],` +
		`"n":1.5,"nested":{"s":"inner strings stay in the head"},"nothing":null}}`
	if string(head) != wantHead {
		t.Fatalf("head = %s\nwant   %s", head, wantHead)
	}
	var names []string
	for {
		name, _, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	if want := []string{"result/a/b.png", "result/bytes", "result/empty"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("parts %q, want %q", names, want)
	}

	want, _ := reg.Act(context.Background(), "dev", "strings", nil)
	got, err := NewHTTPClient(srv.URL, "dev").Act(context.Background(), "dev", "strings", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("over HTTP %#v\nin process %#v", got, want)
	}
}

// TestHTTPHostileActionBodies: a 200 whose body breaks the framing — head
// not first, a repeated or unknown part, a bad part name, a result key
// sent twice, or a body cut short anywhere — is a transport fault,
// classified workcell-down exactly like a truncated JSON body.
func TestHTTPHostileActionBodies(t *testing.T) {
	type part struct{ name, body string }
	body := func(parts ...part) string {
		var b strings.Builder
		for _, p := range parts {
			fmt.Fprintf(&b, "--b\r\nContent-Disposition: form-data; name=\"%s\"\r\n\r\n%s\r\n", p.name, p.body)
		}
		return b.String() + "--b--\r\n"
	}
	head := part{"response", `{"result":{"pong":true}}`}
	cases := map[string]string{
		"no parts":            "--b--\r\n",
		"head not first":      body(part{"result/echo", "x"}, head),
		"second head":         body(head, head),
		"duplicate part":      body(head, part{"result/echo", "x"}, part{"result/echo", "y"}),
		"unknown part":        body(head, part{"comment", "x"}),
		"part without a name": body(head, part{"", "x"}),
		"control character":   body(head, part{"result/a\x01b", "x"}),
		"encoded control char": strings.Replace(body(head, part{"", "x"}), `name=""`,
			"name*=UTF-8''result%2Fa%01b", 1),
		"key in head and part":  body(head, part{"result/pong", "x"}),
		"head not JSON":         body(part{"response", `{"result":`}),
		"missing closing delim": strings.TrimSuffix(body(head, part{"result/echo", "x"}), "--b--\r\n"),
	}
	// Every proper prefix of a valid body, up to its closing delimiter, is
	// a body cut short.
	valid := body(head, part{"result/echo", "over http"})
	for n := 0; n < len(valid)-len("\r\n"); n++ {
		cases[fmt.Sprintf("truncated at %d", n)] = valid[:n]
	}

	var serve atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "multipart/form-data; boundary=b")
		io.WriteString(w, serve.Load().(string))
	}))
	defer srv.Close()
	c := NewHTTPClient(srv.URL, "dev")

	serve.Store(valid)
	if res, err := c.Act(context.Background(), "dev", "ping", nil); err != nil ||
		res["pong"] != true || res["echo"] != "over http" {
		t.Fatalf("valid body: %#v, %v", res, err)
	}
	for name, b := range cases {
		serve.Store(b)
		_, err := c.Act(context.Background(), "dev", "ping", nil)
		var te *TransportError
		if !errors.As(err, &te) || te.Op != "decode" || Classify(err) != ClassWorkcellDown {
			t.Errorf("%s: err = %v, class %v; want a decode transport fault", name, err, Classify(err))
		}
	}
}

// discardWriter is a ResponseWriter that counts the body bytes written to
// it and keeps none.
type discardWriter struct {
	h http.Header
	n int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}

// TestWriteActionDoesNotCopyResults: a result string goes onto the wire
// from the Result that holds it. Writing a 1 MiB result allocates under
// 256 KiB, and the response's Content-Length is the bytes written.
func TestWriteActionDoesNotCopyResults(t *testing.T) {
	resp := actResponse{Result: Result{"image_png": strings.Repeat("iVBORw0K", 1<<17), "plate": 7.0}}
	var w *discardWriter
	write := func() {
		w = &discardWriter{h: http.Header{}}
		writeAction(w, resp)
	}
	write()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const n = 8
	for range n {
		write()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("%d bytes allocated per 1 MiB result", per)
	if per >= 256<<10 {
		t.Fatalf("%d bytes allocated per 1 MiB result, want under 256 KiB", per)
	}
	if cl := w.h.Get("Content-Length"); cl != strconv.Itoa(w.n) || w.n <= 1<<20 {
		t.Fatalf("Content-Length %q, %d bytes written", cl, w.n)
	}
}
