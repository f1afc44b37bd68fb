package fleet

import (
	"context"
	"testing"
	"time"
)

// churnRemoteOpts keeps remote engines snappy under test.
var churnRemoteOpts = RemoteOptions{RetryDelay: time.Millisecond}

// TestChurnReadmission is the canonical churn integration test: a remote
// cell is killed mid-campaign, its campaign is requeued (uncharged) onto the
// survivor, the health prober re-admits the cell when it restarts, and the
// re-admitted cell completes at least one more campaign. Every campaign is
// accounted for; none are lost.
func TestChurnReadmission(t *testing.T) {
	pool, err := NewChurnPool(ChurnPoolOptions{Cells: 2, Seed: 1, ActDelay: 3 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	reg := NewRegistry(RegistryOptions{
		ProbeInterval: 5 * time.Millisecond,
		MaxDowntime:   time.Minute,
		Seed:          1,
	})
	defer reg.Close()
	if err := pool.Register(reg, churnRemoteOpts); err != nil {
		t.Fatal(err)
	}

	// Kill cell 0 a few actions into its first campaign, and restart it
	// shortly after the fleet has noticed the death.
	pool.KillAfterActions(0, 3)
	restarted := make(chan struct{})
	go func() {
		defer close(restarted)
		deadline := time.Now().Add(30 * time.Second)
		for pool.Deaths(0) == 0 {
			if time.Now().After(deadline) {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond)
		pool.Restart(0)
	}()

	campaigns := quickCampaigns(10, 8)
	res, err := Run(context.Background(), campaigns, Options{Registry: reg, Batch: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	<-restarted
	if pool.Deaths(0) == 0 {
		t.Fatal("cell 0 never died; the churn never happened")
	}

	if got := res.Completed + res.Failed + res.Canceled; got != len(campaigns) {
		t.Fatalf("accounted campaigns = %d, want %d (lost work)", got, len(campaigns))
	}
	if res.Completed != len(campaigns) {
		for _, cr := range res.Campaigns {
			if cr.Err != nil {
				t.Logf("campaign %s: %v", cr.Campaign.Name, cr.Err)
			}
		}
		t.Fatalf("completed = %d, want %d", res.Completed, len(campaigns))
	}
	if res.Readmissions < 1 {
		t.Fatalf("readmissions = %d, want >= 1", res.Readmissions)
	}

	var churned *WorkcellStats
	for i := range res.Workcells {
		if res.Workcells[i].Name == "churn0" {
			churned = &res.Workcells[i]
		}
	}
	if churned == nil {
		t.Fatalf("no churn0 in workcell stats: %+v", res.Workcells)
	}
	if churned.Admissions < 2 {
		t.Fatalf("churn0 admissions = %d, want >= 2 (re-admitted)", churned.Admissions)
	}
	// Cell 0 died mid-way through its first campaign (which was requeued),
	// so every campaign it completed ran after a re-admission.
	if churned.Campaigns < 1 {
		t.Fatalf("churn0 completed %d campaigns after re-admission, want >= 1", churned.Campaigns)
	}
}

// TestTotalPoolLossFailsFast pins the no-hang guarantee: when every cell
// dies permanently with campaigns still queued and the registry gives up on
// all of them (MaxDowntime), Run drains the queue as failures instead of
// waiting forever.
func TestTotalPoolLossFailsFast(t *testing.T) {
	pool, err := NewChurnPool(ChurnPoolOptions{Cells: 2, Seed: 2, ActDelay: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	reg := NewRegistry(RegistryOptions{
		ProbeInterval: 5 * time.Millisecond,
		MaxDowntime:   50 * time.Millisecond,
		Seed:          2,
	})
	defer reg.Close()
	if err := pool.Register(reg, churnRemoteOpts); err != nil {
		t.Fatal(err)
	}

	// Both cells die early and never restart; the 8-campaign queue cannot
	// drain onto anything.
	pool.KillAfterActions(0, 2)
	pool.KillAfterActions(1, 2)

	start := time.Now()
	res, err := Run(context.Background(), quickCampaigns(8, 8), Options{Registry: reg, Batch: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Minute {
		t.Fatalf("Run took %v after total pool loss; want fail-fast", elapsed)
	}
	if got := res.Completed + res.Failed + res.Canceled; got != 8 {
		t.Fatalf("accounted campaigns = %d, want 8", got)
	}
	if res.Failed == 0 {
		t.Fatal("no campaign failed despite permanent total pool loss")
	}
	for _, cr := range res.Campaigns {
		if cr.Status == StatusFailed && cr.Err == nil {
			t.Fatalf("failed campaign %s has no error", cr.Campaign.Name)
		}
	}
}

// TestRegistryRunStaticEquivalence checks that a Run given an explicit
// registry of probe-less local members behaves like the Workcells pool —
// same completion accounting, stable slot indexes.
func TestRegistryRunStaticEquivalence(t *testing.T) {
	reg := NewRegistry(RegistryOptions{Seed: 4})
	defer reg.Close()
	for w := 0; w < 2; w++ {
		if _, err := reg.Add(localSpec(Options{Workcells: 2, Seed: 4, LanesPerCell: 1}, w, 40)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Run(context.Background(), quickCampaigns(4, 8), Options{Registry: reg, Batch: 4, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 4 {
		t.Fatalf("completed = %d, want 4", res.Completed)
	}
	if len(res.Workcells) != 2 {
		t.Fatalf("workcells = %d, want 2", len(res.Workcells))
	}
	for i, wc := range res.Workcells {
		if wc.Index != i || wc.Admissions != 1 || wc.Retired {
			t.Fatalf("slot %d = %+v, want stable index, one admission, not retired", i, wc)
		}
	}
}
