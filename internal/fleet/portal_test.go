package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"colormatch/internal/portal"
)

// TestFleetPublishesToExternalPortal routes a fleet run at an
// Options.Portal destination: every campaign's records and the fleet
// summary land there.
func TestFleetPublishesToExternalPortal(t *testing.T) {
	store := portal.NewStore()
	res, err := Run(context.Background(), quickCampaigns(2, 8), Options{
		Workcells: 2, Seed: 9, Portal: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2 {
		t.Fatalf("completed = %d", res.Completed)
	}
	for _, cr := range res.Campaigns {
		if cr.PublishErr != nil {
			t.Fatalf("campaign %s publish error: %v", cr.Campaign.Name, cr.PublishErr)
		}
		recs := store.Search(portal.Query{Experiment: "fleet_" + cr.Campaign.Name})
		if len(recs) == 0 {
			t.Fatalf("campaign %s published no records", cr.Campaign.Name)
		}
	}
	if sum := store.Search(portal.Query{Experiment: "fleet"}); len(sum) != 1 {
		t.Fatalf("fleet summary records = %d", len(sum))
	}
	if res.PublishErr != nil {
		t.Fatalf("summary publish error: %v", res.PublishErr)
	}
}

// failingIngestor rejects everything — an unreachable portal.
type failingIngestor struct{}

func (failingIngestor) IngestBatchKeyed(string, []portal.Record) ([]string, error) {
	return nil, errors.New("portal unreachable")
}

// TestFleetSurfacesSummaryPublishFailure: with an external portal that is
// down, the run still completes but Result.PublishErr reports the lost
// fleet summary instead of passing silently.
func TestFleetSurfacesSummaryPublishFailure(t *testing.T) {
	res, err := Run(context.Background(), quickCampaigns(1, 8), Options{
		Workcells: 1, Seed: 3, Portal: failingIngestor{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 {
		t.Fatalf("completed = %d", res.Completed)
	}
	if res.PublishErr == nil {
		t.Fatal("summary publish failure passed silently")
	}
}

// TestFleetPortalSurvivesRestart is the acceptance path: a fleet publishes
// over HTTP to a portal backed by a data directory, the portal process
// "restarts" (server closed, store closed, directory reopened), and the
// new instance serves every campaign record, the fleet summary, and the
// plate-image attachments from the replayed log.
func TestFleetPortalSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	store, err := portal.OpenStoreWith(dir, portal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(portal.Serve(store))

	res, err := Run(context.Background(), quickCampaigns(2, 8), Options{
		Workcells: 2, Seed: 5, Portal: portal.NewClient(srv.URL),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2 {
		t.Fatalf("completed = %d", res.Completed)
	}
	for _, cr := range res.Campaigns {
		if cr.PublishErr != nil {
			t.Fatalf("campaign %s publish error: %v", cr.Campaign.Name, cr.PublishErr)
		}
	}
	published := store.Len()
	if published == 0 {
		t.Fatal("nothing published before restart")
	}

	// Restart: kill the serving process state entirely.
	srv.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := portal.OpenStoreWith(dir, portal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	srv2 := httptest.NewServer(portal.Serve(reopened))
	defer srv2.Close()
	client := portal.NewClient(srv2.URL)

	if reopened.Len() != published {
		t.Fatalf("replayed %d of %d records", reopened.Len(), published)
	}
	for _, cr := range res.Campaigns {
		recs, err := client.Search("fleet_"+cr.Campaign.Name, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			t.Fatalf("campaign %s records missing after restart", cr.Campaign.Name)
		}
		// The plate image rides as a blob and must be served in full.
		full, err := client.Get(recs[0].ID)
		if err != nil {
			t.Fatal(err)
		}
		if len(full.Files["plate.png"]) == 0 {
			t.Fatalf("campaign %s record %s lost its plate image", cr.Campaign.Name, recs[0].ID)
		}
	}
	sum, err := client.Summary("fleet")
	if err != nil || sum.Records != 1 {
		t.Fatalf("fleet summary after restart = %+v, %v", sum, err)
	}
}

// flakyBatchPortal is a destination whose first failures IngestBatchKeyed
// calls fail — a portal briefly unreachable exactly at the end-of-campaign
// flush.
type flakyBatchPortal struct {
	*portal.Store
	failures int
	calls    int
}

func (p *flakyBatchPortal) IngestBatchKeyed(key string, recs []portal.Record) ([]string, error) {
	p.calls++
	if p.calls <= p.failures {
		return nil, errors.New("portal briefly unreachable")
	}
	return p.Store.IngestBatchKeyed(key, recs)
}

// TestFleetFlushRetriesTransientPortalFailure: the campaign-end batch flush
// retries a failed send (portal.Buffer.Deliver's paced retries), so a
// transient portal fault does not drop the campaign's records — and on
// success the destination-assigned IDs land in CampaignResult.RecordIDs.
func TestFleetFlushRetriesTransientPortalFailure(t *testing.T) {
	dest := &flakyBatchPortal{Store: portal.NewStore(), failures: 2}
	res, err := Run(context.Background(), quickCampaigns(1, 8), Options{
		Workcells: 1, Seed: 7, Portal: dest,
	})
	if err != nil {
		t.Fatal(err)
	}
	cr := res.Campaigns[0]
	if cr.PublishErr != nil {
		t.Fatalf("transient flush failure surfaced as PublishErr: %v", cr.PublishErr)
	}
	if len(cr.RecordIDs) == 0 {
		t.Fatal("no destination-assigned record IDs on the campaign result")
	}
	for _, id := range cr.RecordIDs {
		if _, err := dest.Get(id); err != nil {
			t.Fatalf("record %s not in portal: %v", id, err)
		}
	}
	if got := dest.Search(portal.Query{Experiment: "fleet_" + cr.Campaign.Name}); len(got) != len(cr.RecordIDs) {
		t.Fatalf("portal has %d campaign records, result lists %d", len(got), len(cr.RecordIDs))
	}
}

// TestFleetFlushExhaustsRetries: a portal that stays down through every
// flush attempt surfaces as PublishErr with no RecordIDs.
func TestFleetFlushExhaustsRetries(t *testing.T) {
	dest := &flakyBatchPortal{Store: portal.NewStore(), failures: 1 << 20}
	res, err := Run(context.Background(), quickCampaigns(1, 8), Options{
		Workcells: 1, Seed: 7, Portal: dest,
	})
	if err != nil {
		t.Fatal(err)
	}
	cr := res.Campaigns[0]
	if cr.PublishErr == nil {
		t.Fatal("dead portal's lost records passed silently")
	}
	if cr.RecordIDs != nil {
		t.Fatalf("failed flush still reported RecordIDs %v", cr.RecordIDs)
	}
}

// invalidBatchPortal rejects every campaign batch as an invalid submission
// — the portal's 400, which a client maps back to portal.ErrInvalid. The
// fleet summary record passes through to the store, so calls counts only
// the campaign flush.
type invalidBatchPortal struct {
	*portal.Store
	calls int
}

func (p *invalidBatchPortal) IngestBatchKeyed(key string, recs []portal.Record) ([]string, error) {
	if len(recs) == 1 && recs[0].Experiment == "fleet" {
		return p.Store.IngestBatchKeyed(key, recs)
	}
	p.calls++
	return nil, fmt.Errorf("%w: batch rejected", portal.ErrInvalid)
}

// TestFleetFlushDoesNotRetryInvalidBatch: a rejected submission is not a
// transient fault — resending it is hopeless, so the flush loop must
// surface it after one attempt instead of burning its retry budget.
func TestFleetFlushDoesNotRetryInvalidBatch(t *testing.T) {
	dest := &invalidBatchPortal{Store: portal.NewStore()}
	res, err := Run(context.Background(), quickCampaigns(1, 8), Options{
		Workcells: 1, Seed: 7, Portal: dest,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Campaigns[0].PublishErr == nil {
		t.Fatal("invalid batch passed silently")
	}
	if dest.calls != 1 {
		t.Fatalf("invalid batch flushed %d times, want 1", dest.calls)
	}
}

// lossyPortal serves store over HTTP but loses the response to the first
// POST /ingest/batch that carries a record of experiment exp: the store
// commits the write, then the connection is aborted before any answer
// reaches the client. lost reports whether that has happened.
func lossyPortal(t *testing.T, store *portal.Store, exp string) (url string, lost *atomic.Bool) {
	t.Helper()
	h := portal.Serve(store)
	lost = new(atomic.Bool)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/ingest/batch" {
			body, _ := io.ReadAll(req.Body)
			req.Body = io.NopCloser(bytes.NewReader(body))
			if bytes.Contains(body, []byte(`"experiment":"`+exp+`"`)) && lost.CompareAndSwap(false, true) {
				h.ServeHTTP(httptest.NewRecorder(), req)
				panic(http.ErrAbortHandler)
			}
		}
		h.ServeHTTP(w, req)
	}))
	t.Cleanup(srv.Close)
	return srv.URL, lost
}

// TestFleetSummaryLostResponseIngestsOnce: the portal commits the fleet
// summary but the response is lost on the wire. Delivery's retry resends it
// under the key its first attempt carried and gets the original ID back, so
// the portal holds exactly one summary record.
func TestFleetSummaryLostResponseIngestsOnce(t *testing.T) {
	store := portal.NewStore()
	url, lost := lossyPortal(t, store, "fleet")
	res, err := Run(context.Background(), quickCampaigns(1, 8), Options{
		Workcells: 1, Seed: 9, Portal: portal.NewClient(url),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !lost.Load() {
		t.Fatal("the summary write never lost its response")
	}
	if res.PublishErr != nil {
		t.Fatalf("summary publish error: %v", res.PublishErr)
	}
	if sum := store.Search(portal.Query{Experiment: "fleet"}); len(sum) != 1 {
		t.Fatalf("fleet summary records = %d, want 1", len(sum))
	}
}
