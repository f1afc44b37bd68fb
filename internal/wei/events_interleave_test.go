package wei

import (
	"fmt"
	"sync"
	"testing"

	"colormatch/internal/sim"
)

// TestEventLogInterleavedWorkflows hammers one log from several goroutines,
// each appending its own workflow's numbered events, and checks the
// invariants lane pipelining leans on: sequence numbers are unique and
// dense, every appended event survives, and each workflow's events keep
// their original per-workflow order.
func TestEventLogInterleavedWorkflows(t *testing.T) {
	const (
		workflows = 8
		perWF     = 200
	)
	log := NewEventLog(sim.NewSimClockAt(sim.Epoch))
	var wg sync.WaitGroup
	for w := 0; w < workflows; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("wf%d", w)
			for i := 0; i < perWF; i++ {
				log.Append(Event{Kind: EvNote, Workflow: name, Attempt: i})
			}
		}(w)
	}
	wg.Wait()

	events := log.Events()
	if len(events) != workflows*perWF {
		t.Fatalf("len = %d, want %d", len(events), workflows*perWF)
	}
	for i, e := range events {
		if e.Seq != i {
			t.Fatalf("event %d has seq %d: sequence not dense", i, e.Seq)
		}
	}
	byWF := map[string][]Event{}
	for _, e := range events {
		byWF[e.Workflow] = append(byWF[e.Workflow], e)
	}
	for w := 0; w < workflows; w++ {
		name := fmt.Sprintf("wf%d", w)
		got := byWF[name]
		if len(got) != perWF {
			t.Fatalf("workflow %s: %d events, want %d", name, len(got), perWF)
		}
		lastSeq := -1
		for i, e := range got {
			if e.Attempt != i {
				t.Fatalf("workflow %s: event %d out of order (attempt %d): per-workflow order lost", name, i, e.Attempt)
			}
			if e.Seq <= lastSeq {
				t.Fatalf("workflow %s: seq went %d -> %d", name, lastSeq, e.Seq)
			}
			lastSeq = e.Seq
		}
	}
}
