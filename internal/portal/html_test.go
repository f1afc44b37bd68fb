package portal

import (
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestHTMLIndex(t *testing.T) {
	store := NewStore()
	for run := 1; run <= 3; run++ {
		ingestOne(store, Record{
			Experiment: "webexp",
			Run:        run,
			Time:       time.Date(2023, 8, 16, 9+run, 0, 0, 0, time.UTC),
			Fields:     map[string]any{"samples": 15, "best_score": 20.0 - float64(run)},
			Files:      map[string][]byte{"plate.png": []byte("img")},
		})
	}
	srv := httptest.NewServer(Serve(store))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("content type %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	html := string(body)
	for _, want := range []string{"webexp", "<td>3</td>", "<td>45</td>", "17.00", "2023-08-16"} {
		if !strings.Contains(html, want) {
			t.Fatalf("index missing %q:\n%s", want, html)
		}
	}
}

func TestHTMLIndexUnknownPath404s(t *testing.T) {
	srv := httptest.NewServer(Serve(NewStore()))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestHTMLIndexEmptyStore(t *testing.T) {
	srv := httptest.NewServer(Serve(NewStore()))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "0 records") {
		t.Fatalf("empty index:\n%s", body)
	}
}

func TestHTMLEscapesExperimentNames(t *testing.T) {
	store := NewStore()
	ingestOne(store, Record{Experiment: "<script>alert(1)</script>", Run: 1, Time: time.Now()})
	srv := httptest.NewServer(Serve(store))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if strings.Contains(string(body), "<script>alert") {
		t.Fatal("experiment name not escaped")
	}
}
