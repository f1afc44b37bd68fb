package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"colormatch/internal/core"
	"colormatch/internal/wei"
)

// flakyProbe is a probe whose answer is flipped by tests.
type flakyProbe struct{ up atomic.Bool }

func (p *flakyProbe) probe(ctx context.Context) (wei.Capabilities, error) {
	if p.up.Load() {
		return wei.Capabilities{Lanes: 1, OT2s: 1}, nil
	}
	return wei.Capabilities{}, errors.New("connection refused")
}

func unusedOpener(ctx context.Context) (Cell, error) {
	return nil, errors.New("opener not under test")
}

// nextEvent pulls one membership event with a test deadline.
func nextEvent(t *testing.T, sub *eventSub) memberEvent {
	t.Helper()
	type out struct {
		ev memberEvent
		ok bool
	}
	ch := make(chan out, 1)
	go func() {
		ev, ok := sub.next()
		ch <- out{ev, ok}
	}()
	select {
	case o := <-ch:
		if !o.ok {
			t.Fatal("event stream closed")
		}
		return o.ev
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for membership event")
	}
	panic("unreachable")
}

// waitForState polls until the named member reaches want.
func waitForState(t *testing.T, reg *Registry, name string, want CellState) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if mi, ok := reg.Member(name); ok && mi.State == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	mi, _ := reg.Member(name)
	t.Fatalf("member %s never reached %s (state %s, lastErr %q)", name, want, mi.State, mi.LastErr)
}

// TestRegistryReadmissionLifecycle drives the full state machine with a fake
// probe: up → fault → suspect → down (three failed probes) → probation
// (probe answers) → re-admitted up (two successes), with an admit event and
// refreshed capabilities at the end.
func TestRegistryReadmissionLifecycle(t *testing.T) {
	p := &flakyProbe{}
	reg := NewRegistry(RegistryOptions{
		ProbeInterval: 2 * time.Millisecond,
		MaxDowntime:   time.Minute, Seed: 7,
	})
	defer reg.Close()
	name, err := reg.Add(MemberSpec{Name: "c", Open: unusedOpener, Probe: p.probe})
	if err != nil {
		t.Fatal(err)
	}
	sub := reg.subscribe()
	defer reg.unsubscribe(sub)
	if ev := nextEvent(t, sub); ev.kind != evAdmit || ev.m.name != name {
		t.Fatalf("primed event = %+v, want admit of %s", ev, name)
	}

	reg.Fault(name, errors.New("transport died"))
	if mi, _ := reg.Member(name); mi.State != StateSuspect {
		t.Fatalf("state after fault = %s, want suspect", mi.State)
	}
	waitForState(t, reg, name, StateDown)
	if got := reg.Alive(); got != 1 {
		t.Fatalf("Alive() = %d while down, want 1 (down may return)", got)
	}

	p.up.Store(true)
	ev := nextEvent(t, sub)
	if ev.kind != evAdmit || ev.m.name != name {
		t.Fatalf("event = %+v, want re-admit of %s", ev, name)
	}
	mi, _ := reg.Member(name)
	if mi.State != StateUp || mi.Admissions != 2 {
		t.Fatalf("after re-admission: state=%s admissions=%d, want up/2", mi.State, mi.Admissions)
	}
	if !mi.CapsKnown || mi.Caps.Lanes != 1 {
		t.Fatalf("re-admit caps = %+v (known=%v), want refreshed from probe", mi.Caps, mi.CapsKnown)
	}
}

// TestRegistryProbeLessFaultIsFatal pins the static-pool policy: a member
// without a probe goes straight to gone on fault, exactly the pre-registry
// retirement semantics.
func TestRegistryProbeLessFaultIsFatal(t *testing.T) {
	reg := NewRegistry(RegistryOptions{Seed: 1})
	defer reg.Close()
	name, err := reg.Add(MemberSpec{Open: unusedOpener})
	if err != nil {
		t.Fatal(err)
	}
	reg.Fault(name, errors.New("boom"))
	mi, _ := reg.Member(name)
	if mi.State != StateGone {
		t.Fatalf("probe-less member after fault = %s, want gone", mi.State)
	}
	if reg.Alive() != 0 {
		t.Fatalf("Alive() = %d, want 0", reg.Alive())
	}
}

// TestRegistryMaxDowntimeGivesUp bounds how long a never-answering member is
// kept on the books: past MaxDowntime it is removed with a leave event.
func TestRegistryMaxDowntimeGivesUp(t *testing.T) {
	p := &flakyProbe{} // never up
	reg := NewRegistry(RegistryOptions{
		ProbeInterval: time.Millisecond,
		MaxDowntime:   20 * time.Millisecond,
		Seed:          3,
	})
	defer reg.Close()
	name, _ := reg.Add(MemberSpec{Name: "dead", Open: unusedOpener, Probe: p.probe})
	reg.Fault(name, errors.New("gone dark"))
	waitForState(t, reg, name, StateGone)
	mi, _ := reg.Member(name)
	if mi.LastErr == "" {
		t.Fatal("give-up kept no cause")
	}
}

// TestRegistryDeregisterHaltsWorker checks the graceful-leave path: the
// bound worker's decommission hook runs and the member is terminally gone —
// a later fault or announce cannot resurrect it.
func TestRegistryDeregisterHaltsWorker(t *testing.T) {
	reg := NewRegistry(RegistryOptions{Seed: 1})
	defer reg.Close()
	name, _ := reg.Add(MemberSpec{Name: "w", Open: unusedOpener})
	var halted atomic.Bool
	reg.bindWorker(name, func() { halted.Store(true) })
	reg.Deregister(name)
	if !halted.Load() {
		t.Fatal("deregister did not halt the bound worker")
	}
	reg.Fault(name, errors.New("late fault"))
	if mi, _ := reg.Member(name); mi.State != StateGone {
		t.Fatalf("state = %s, want gone to stay terminal", mi.State)
	}
}

// TestRegistryAddRemoteConflicts pins join-listener safety: the same name
// can re-announce from the same URL (idempotent), but claiming an existing
// name from a different URL is rejected.
func TestRegistryAddRemoteConflicts(t *testing.T) {
	ws := wei.NewWorkcellServer(core.NewSimWorkcell(core.WorkcellOptions{Seed: 1}).Registry,
		wei.ServerOptions{Caps: wei.Capabilities{Lanes: 1}})
	srv := httptest.NewServer(ws.Handler())
	defer srv.Close()

	reg := NewRegistry(RegistryOptions{Seed: 1})
	defer reg.Close()
	if _, err := reg.AddRemote("alpha", srv.URL, RemoteOptions{}); err != nil {
		t.Fatal(err)
	}
	if mi, _ := reg.Member("alpha"); mi.State != StateUp || !mi.CapsKnown {
		t.Fatalf("healthy join = %+v, want up with known caps", mi)
	}
	if _, err := reg.AddRemote("alpha", srv.URL, RemoteOptions{}); err != nil {
		t.Fatalf("re-announce from same URL = %v, want nil", err)
	}
	if _, err := reg.AddRemote("alpha", "http://elsewhere:1", RemoteOptions{}); err == nil {
		t.Fatal("claiming alpha from a different URL succeeded, want conflict error")
	}
}

// TestJoinHandlerLifecycle exercises the HTTP control plane end to end:
// announce → member up, members listing, leave → member gone.
func TestJoinHandlerLifecycle(t *testing.T) {
	ws := wei.NewWorkcellServer(core.NewSimWorkcell(core.WorkcellOptions{Seed: 1}).Registry,
		wei.ServerOptions{Caps: wei.Capabilities{Lanes: 1, OT2s: 1}})
	cell := httptest.NewServer(ws.Handler())
	defer cell.Close()

	reg := NewRegistry(RegistryOptions{Seed: 1})
	defer reg.Close()
	ctrl := httptest.NewServer(reg.JoinHandler(RemoteOptions{}))
	defer ctrl.Close()

	ctx := context.Background()
	if err := Announce(ctx, ctrl.URL, "alpha", cell.URL); err != nil {
		t.Fatal(err)
	}
	if mi, ok := reg.Member("alpha"); !ok || mi.State != StateUp {
		t.Fatalf("after announce: %+v, want alpha up", mi)
	}

	resp, err := http.Get(ctrl.URL + "/members")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var members []MemberInfo
	if err := json.NewDecoder(resp.Body).Decode(&members); err != nil {
		t.Fatal(err)
	}
	if len(members) != 1 || members[0].Name != "alpha" || members[0].URL != cell.URL {
		t.Fatalf("members = %+v", members)
	}

	if err := Leave(ctx, ctrl.URL, "alpha"); err != nil {
		t.Fatal(err)
	}
	if mi, _ := reg.Member("alpha"); mi.State != StateGone {
		t.Fatalf("after leave: state = %s, want gone", mi.State)
	}

	// Malformed and non-POST requests are rejected, not crashes.
	if resp, err := http.Get(ctrl.URL + "/join"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET /join = %d, want 400", resp.StatusCode)
		}
	}
}

// TestJoinBeforeBoot covers the join-before-the-server-is-up path: the
// member registers suspect and the prober admits it once /healthz answers.
func TestJoinBeforeBoot(t *testing.T) {
	var booted atomic.Bool
	ws := wei.NewWorkcellServer(core.NewSimWorkcell(core.WorkcellOptions{Seed: 1}).Registry,
		wei.ServerOptions{Caps: wei.Capabilities{Lanes: 1}})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !booted.Load() {
			panic(http.ErrAbortHandler)
		}
		ws.Handler().ServeHTTP(w, r)
	}))
	defer srv.Close()

	reg := NewRegistry(RegistryOptions{
		ProbeInterval: 2 * time.Millisecond,
		MaxDowntime:   time.Minute,
		Seed:          5,
	})
	defer reg.Close()
	name, err := reg.AddRemote("late", srv.URL, RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if mi, _ := reg.Member(name); mi.State != StateSuspect {
		t.Fatalf("pre-boot join state = %s, want suspect", mi.State)
	}
	booted.Store(true)
	waitForState(t, reg, name, StateUp)
}

func TestParseChurn(t *testing.T) {
	events, err := ParseChurn(" 0@500ms+700ms, 1@2s ,")
	if err != nil {
		t.Fatal(err)
	}
	want := []ChurnEvent{
		{Cell: 0, At: 500 * time.Millisecond, Downtime: 700 * time.Millisecond},
		{Cell: 1, At: 2 * time.Second},
	}
	if len(events) != len(want) {
		t.Fatalf("events = %+v, want %+v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, events[i], want[i])
		}
	}
	if got, err := ParseChurn(""); err != nil || len(got) != 0 {
		t.Fatalf("empty spec = %v, %v", got, err)
	}
	for _, bad := range []string{"nope", "x@1s", "-1@1s", "0@wat", "0@1s+wat"} {
		if _, err := ParseChurn(bad); err == nil {
			t.Errorf("ParseChurn(%q) = nil error, want parse failure", bad)
		}
	}
}

// TestChurnScheduleStoppedEarly: Deaths counts only the kills a schedule
// actually fired — one stopped before its later events reports those as
// never having happened.
func TestChurnScheduleStoppedEarly(t *testing.T) {
	pool, err := NewChurnPool(ChurnPoolOptions{Cells: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	stop := pool.Schedule([]ChurnEvent{{Cell: 0}, {Cell: 1, At: time.Hour}})
	for deadline := time.Now().Add(10 * time.Second); pool.Deaths(0) == 0; {
		if time.Now().After(deadline) {
			stop()
			t.Fatal("the immediate kill never fired")
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	if got := pool.Deaths(0) + pool.Deaths(1); got != 1 {
		t.Fatalf("deaths = %d, want 1 (the hour-out kill was stopped)", got)
	}
}
