package wei

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// countingHandler answers 200 and counts the requests that reached it.
type countingHandler struct{ served atomic.Int64 }

func (h *countingHandler) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	h.served.Add(1)
	w.WriteHeader(http.StatusOK)
}

// crashed serves one request through h and reports whether the handler
// aborted it with http.ErrAbortHandler, the chaos crash.
func crashed(t *testing.T, h http.Handler) (aborted bool) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			if err, ok := r.(error); !ok || !errors.Is(err, http.ErrAbortHandler) {
				panic(r)
			}
			aborted = true
		}
	}()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/healthz", nil))
	return false
}

func TestChaosZeroPlanIsNext(t *testing.T) {
	next := &countingHandler{}
	if got := ChaosMiddleware(ChaosPlan{}, next); got != http.Handler(next) {
		t.Fatalf("zero plan wrapped next: got %T", got)
	}
}

func TestChaosCrashAbortsWithoutResponse(t *testing.T) {
	next := &countingHandler{}
	srv := httptest.NewServer(ChaosMiddleware(ChaosPlan{PCrash: 1, Seed: 1}, next))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err == nil {
		resp.Body.Close()
		t.Fatalf("crashing server answered HTTP %d, want no response", resp.StatusCode)
	}
	if n := next.served.Load(); n != 0 {
		t.Fatalf("next served %d requests behind a certain crash, want 0", n)
	}
}

func TestChaosSlowAnswersLate(t *testing.T) {
	next := &countingHandler{}
	h := ChaosMiddleware(ChaosPlan{PSlow: 1, SlowFor: 20 * time.Millisecond, Seed: 1}, next)
	rec := httptest.NewRecorder()
	start := time.Now()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if took := time.Since(start); took < 20*time.Millisecond {
		t.Fatalf("slow answer took %v, want at least 20ms", took)
	}
	if rec.Code != http.StatusOK || next.served.Load() != 1 {
		t.Fatalf("slow answer: HTTP %d, next served %d, want 200 and 1", rec.Code, next.served.Load())
	}
}

// TestChaosSeedReproducible: two middlewares built from the same plan crash
// the same requests, so a chaos run replays from its seed.
func TestChaosSeedReproducible(t *testing.T) {
	plan := ChaosPlan{PCrash: 0.5, Seed: 42}
	a := ChaosMiddleware(plan, &countingHandler{})
	b := ChaosMiddleware(plan, &countingHandler{})
	crashes := 0
	for i := 0; i < 50; i++ {
		ca, cb := crashed(t, a), crashed(t, b)
		if ca != cb {
			t.Fatalf("request %d: crash %v vs %v under one seed", i, ca, cb)
		}
		if ca {
			crashes++
		}
	}
	if crashes == 0 || crashes == 50 {
		t.Fatalf("%d of 50 requests crashed at PCrash 0.5, want a mix", crashes)
	}
}
