package fleet

import (
	"time"

	"colormatch/internal/portal"
	"colormatch/internal/wei"
)

// Stream event kinds emitted by the fleet itself, bracketing each campaign
// attempt's engine events on the live feed.
const (
	evCampaignStart = "campaign_start"
	evCampaignEnd   = "campaign_end"
)

// campaignStream forwards one campaign attempt's events into the fleet's
// EventSink, translating wei.Event (engine-local) into portal.StreamEvent
// (wire form) and adding the lifecycle brackets. engineEvent runs as an
// EventLog sink — under the log's lock, inside the campaign hot loop — so
// it only hands off to the sink, which is non-blocking by contract
// (portal.EventPublisher.PublishEvents enqueues a copy and returns).
//
// SrcSeq carries the per-log sequence number: engine events count 0,1,2,…
// with no holes, campaign_start precedes them as -1, and campaign_end
// carries the final log length — so any subscriber can prove a resumed
// stream re-assembled this attempt gap-free and duplicate-free.
type campaignStream struct {
	sink       portal.EventSink
	experiment string
	campaign   string
	run        int
}

// engineEvent forwards one engine event. The publish error is deliberately
// not consulted: the sink is asynchronous (errors surface at Close), and a
// campaign must not fail because a dashboard feed hiccuped.
func (cs *campaignStream) engineEvent(e wei.Event) {
	_, _ = cs.sink.PublishEvents([]portal.StreamEvent{{
		Experiment: cs.experiment,
		Campaign:   cs.campaign,
		Run:        cs.run,
		Kind:       string(e.Kind),
		Time:       e.Time,
		SrcSeq:     e.Seq,
		Workflow:   e.Workflow,
		Step:       e.Step,
		Module:     e.Module,
		Action:     e.Action,
		Attempt:    e.Attempt,
		Duration:   e.Duration,
		QueueWait:  e.QueueWait,
		Err:        e.Err,
		Note:       e.Note,
	}})
}

// lifecycle emits a campaign_start/campaign_end bracket stamped with the
// workcell's experiment clock.
func (cs *campaignStream) lifecycle(kind string, now time.Time, srcSeq int, note string) {
	_, _ = cs.sink.PublishEvents([]portal.StreamEvent{{
		Experiment: cs.experiment,
		Campaign:   cs.campaign,
		Run:        cs.run,
		Kind:       kind,
		Time:       now,
		SrcSeq:     srcSeq,
		Note:       note,
	}})
}
