package fleet

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"colormatch/internal/core"
	"colormatch/internal/wei"
)

// killableServer is an in-process cmd/workcell-style HTTP workcell server
// that can be made to drop dead deterministically: after killAfter action
// commands every request (including the one that crossed the threshold) is
// aborted mid-connection, exactly what a crashed device computer looks like
// from the fleet side.
type killableServer struct {
	srv       *httptest.Server
	ws        *wei.WorkcellServer
	dead      atomic.Bool
	actions   atomic.Int64
	killAfter int64
}

// newWorkcellHTTPServer starts a workcell server over a fresh simulated
// workcell, with a reset hook that reprovisions plate stock per session.
// killAfter > 0 arms the deterministic mid-run kill.
func newWorkcellHTTPServer(t *testing.T, seed int64, killAfter int64) *killableServer {
	t.Helper()
	opts := core.WorkcellOptions{Seed: seed}
	ws := wei.NewWorkcellServer(core.NewSimWorkcell(opts).Registry, wei.ServerOptions{
		Reset: func() (*wei.Registry, error) {
			return core.NewSimWorkcell(opts).Registry, nil
		},
	})
	ks := &killableServer{ws: ws, killAfter: killAfter}
	handler := ws.Handler()
	ks.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if ks.dead.Load() {
			panic(http.ErrAbortHandler)
		}
		if strings.HasSuffix(r.URL.Path, "/action") {
			if n := ks.actions.Add(1); ks.killAfter > 0 && n > ks.killAfter {
				ks.dead.Store(true)
				panic(http.ErrAbortHandler)
			}
		}
		handler.ServeHTTP(w, r)
	}))
	t.Cleanup(ks.srv.Close)
	return ks
}

// remoteOpts keeps remote-engine retries fast on the wall clock.
var remoteOpts = RemoteOptions{RetryDelay: time.Millisecond}

// remotePool is fixedPool over one remoteSpec member per URL.
func remotePool(t testing.TB, urls ...string) *Registry {
	opens := make([]CellOpener, len(urls))
	for i, url := range urls {
		opens[i] = remoteSpec(url, remoteOpts).Open
	}
	return fixedPool(t, opens...)
}

// TestRemoteFleetCompletesCampaigns runs a multi-campaign fleet against two
// in-process HTTP workcell servers and checks the outcomes match the local
// simulated pool: every campaign completed with its full sample budget, and
// every campaign ran inside its own server-side session.
func TestRemoteFleetCompletesCampaigns(t *testing.T) {
	s1 := newWorkcellHTTPServer(t, 21, 0)
	s2 := newWorkcellHTTPServer(t, 22, 0)
	campaigns := quickCampaigns(4, 8)
	res, err := Run(context.Background(), campaigns,
		Options{Registry: remotePool(t, s1.srv.URL, s2.srv.URL)})
	if err != nil {
		t.Fatal(err)
	}

	local, err := Run(context.Background(), quickCampaigns(4, 8), Options{Workcells: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != local.Completed || res.Failed != local.Failed {
		t.Fatalf("remote completed=%d failed=%d, local %d/%d",
			res.Completed, res.Failed, local.Completed, local.Failed)
	}
	for i, cr := range res.Campaigns {
		if cr.Status != local.Campaigns[i].Status || cr.Samples != local.Campaigns[i].Samples {
			t.Errorf("campaign %d: remote %s/%d samples, local %s/%d",
				i, cr.Status, cr.Samples, local.Campaigns[i].Status, local.Campaigns[i].Samples)
		}
		if cr.Err != nil {
			t.Errorf("campaign %d err: %v", i, cr.Err)
		}
	}
	// Each campaign attempt opened a fresh server-side session (1 initial +
	// campaigns run there), giving per-campaign plate stock and command-log
	// boundaries; 4 campaigns across 2 cells.
	sessions := s1.ws.Session() + s2.ws.Session()
	if sessions != 2+4 {
		t.Errorf("server sessions = %d+%d, want 6 total", s1.ws.Session(), s2.ws.Session())
	}
	for _, wc := range res.Workcells {
		if wc.Retired {
			t.Errorf("workcell %d retired on a healthy run", wc.Index)
		}
	}
}

// TestRemoteFleetReschedulesOffKilledWorkcell is the acceptance scenario: a
// remote workcell dies mid-campaign; the fleet retires it, reschedules its
// campaign onto the surviving cell, and still produces the same campaign
// outcomes the local pool does.
func TestRemoteFleetReschedulesOffKilledWorkcell(t *testing.T) {
	// Server 1 dies after 6 action commands — mid-way through its first
	// campaign (a campaign needs >15 commands).
	s1 := newWorkcellHTTPServer(t, 31, 6)
	s2 := newWorkcellHTTPServer(t, 32, 0)
	campaigns := quickCampaigns(4, 8)
	res, err := Run(context.Background(), campaigns,
		Options{Registry: remotePool(t, s1.srv.URL, s2.srv.URL)})
	if err != nil {
		t.Fatal(err)
	}

	if res.Completed != 4 || res.Failed != 0 {
		t.Fatalf("completed=%d failed=%d, want 4/0 (%+v)", res.Completed, res.Failed, res.Campaigns)
	}
	if !res.Workcells[0].Retired {
		t.Fatal("killed workcell 0 should have retired")
	}
	if res.Workcells[1].Retired {
		t.Fatal("healthy workcell 1 should not have retired")
	}
	rescheduled := 0
	for i, cr := range res.Campaigns {
		if cr.Workcell != 1 {
			t.Errorf("campaign %d finished on workcell %d, want 1 (survivor)", i, cr.Workcell)
		}
		if cr.Attempts > 1 {
			rescheduled++
		}
		if cr.Samples != 8 {
			t.Errorf("campaign %d samples = %d, want full budget 8", i, cr.Samples)
		}
	}
	if rescheduled != 1 {
		t.Fatalf("rescheduled campaigns = %d, want 1", rescheduled)
	}

	// Same campaigns on the local pool: the rescheduling path must not
	// change what a campaign produces, only where it ran.
	local, err := Run(context.Background(), quickCampaigns(4, 8), Options{Workcells: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Campaigns {
		if res.Campaigns[i].Status != local.Campaigns[i].Status ||
			res.Campaigns[i].Samples != local.Campaigns[i].Samples {
			t.Errorf("campaign %d: remote %s/%d, local %s/%d", i,
				res.Campaigns[i].Status, res.Campaigns[i].Samples,
				local.Campaigns[i].Status, local.Campaigns[i].Samples)
		}
	}
}

// TestRemoteFleetHealthGatedAdmission: a cell whose server is already dead
// never joins the pool — it retires at Open and the healthy cell absorbs
// the whole queue.
func TestRemoteFleetHealthGatedAdmission(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	live := newWorkcellHTTPServer(t, 41, 0)
	res, err := Run(context.Background(), quickCampaigns(3, 8),
		Options{Registry: remotePool(t, deadURL, live.srv.URL)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 3 {
		t.Fatalf("completed = %d, want 3 (%+v)", res.Completed, res.Campaigns)
	}
	if !res.Workcells[0].Retired || res.Workcells[0].Campaigns != 0 {
		t.Fatalf("dead cell stats = %+v, want retired with 0 campaigns", res.Workcells[0])
	}
	for i, cr := range res.Campaigns {
		if cr.Workcell != 1 {
			t.Errorf("campaign %d ran on workcell %d", i, cr.Workcell)
		}
	}
}

// TestRemoteFleetAllCellsDead: with every server unreachable the queue
// drains as failures instead of deadlocking.
func TestRemoteFleetAllCellsDead(t *testing.T) {
	s := httptest.NewServer(http.NotFoundHandler())
	url := s.URL
	s.Close()
	res, err := Run(context.Background(), quickCampaigns(2, 8),
		Options{Registry: remotePool(t, url, url)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 2 || res.Completed != 0 {
		t.Fatalf("failed=%d completed=%d, want 2/0", res.Failed, res.Completed)
	}
	for i, cr := range res.Campaigns {
		if cr.Status != StatusFailed || cr.Workcell != -1 {
			t.Errorf("campaign %d = %+v", i, cr)
		}
	}
}
