package metrics

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"colormatch/internal/sim"
	"colormatch/internal/wei"
)

func evt(at time.Duration, kind wei.EventKind, module string, dur time.Duration) wei.Event {
	return wei.Event{Time: sim.Epoch.Add(at), Kind: kind, Module: module, Duration: dur}
}

func TestComputeEmpty(t *testing.T) {
	s := Compute(nil, 0)
	if s.TWH != 0 || s.CCWH != 0 || s.Wall != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestComputeBasicCounts(t *testing.T) {
	events := []wei.Event{
		evt(0, wei.EvWorkflowStart, "", 0),
		evt(1*time.Minute, wei.EvCommandDone, "pf400", 42*time.Second),
		evt(3*time.Minute, wei.EvCommandDone, "ot2", 145*time.Second),
		evt(4*time.Minute, wei.EvCommandDone, "camera", 2*time.Second),
		evt(5*time.Minute, wei.EvCommandFailed, "pf400", time.Second),
		evt(6*time.Minute, wei.EvCommandDone, "pf400", 42*time.Second),
		evt(7*time.Minute, wei.EvPublish, "", 0),
		evt(10*time.Minute, wei.EvPublish, "", 0),
		evt(11*time.Minute, wei.EvWorkflowEnd, "", 0),
	}
	s := Compute(events, 2)
	if s.Wall != 11*time.Minute || s.TWH != 11*time.Minute {
		t.Fatalf("wall/twh = %v/%v", s.Wall, s.TWH)
	}
	if s.CompletedCommands != 4 {
		t.Fatalf("completed = %d", s.CompletedCommands)
	}
	if s.CCWH != 3 { // camera excluded
		t.Fatalf("ccwh = %d", s.CCWH)
	}
	if s.FailedCommands != 1 {
		t.Fatalf("failed = %d", s.FailedCommands)
	}
	if s.TransferTime != 84*time.Second {
		t.Fatalf("transfer = %v", s.TransferTime)
	}
	if s.SynthesisTime != 145*time.Second {
		t.Fatalf("synthesis = %v", s.SynthesisTime)
	}
	if s.TimePerColor != 11*time.Minute/2 {
		t.Fatalf("per color = %v", s.TimePerColor)
	}
	if s.Uploads != 2 || s.MeanUploadInterval != 3*time.Minute {
		t.Fatalf("uploads = %d interval %v", s.Uploads, s.MeanUploadInterval)
	}
}

func TestHumanInputSplitsTWH(t *testing.T) {
	events := []wei.Event{
		evt(0, wei.EvWorkflowStart, "", 0),
		evt(10*time.Minute, wei.EvCommandDone, "pf400", time.Second),
		evt(20*time.Minute, wei.EvHumanInput, "", 0), // operator intervened
		evt(30*time.Minute, wei.EvCommandDone, "pf400", time.Second),
		evt(80*time.Minute, wei.EvWorkflowEnd, "", 0),
	}
	s := Compute(events, 1)
	if s.Wall != 80*time.Minute {
		t.Fatalf("wall = %v", s.Wall)
	}
	if s.TWH != 60*time.Minute {
		t.Fatalf("TWH = %v, want 60m (longest stretch)", s.TWH)
	}
	// Only the command inside the longest stretch counts for CCWH.
	if s.CCWH != 1 {
		t.Fatalf("CCWH = %d", s.CCWH)
	}
}

func TestSecondOT2CountsAsRoboticAndSynthesis(t *testing.T) {
	events := []wei.Event{
		evt(0, wei.EvWorkflowStart, "", 0),
		evt(1*time.Minute, wei.EvCommandDone, "ot2_b", 100*time.Second),
		evt(2*time.Minute, wei.EvWorkflowEnd, "", 0),
	}
	s := Compute(events, 1)
	if s.CCWH != 1 {
		t.Fatalf("ot2_b not counted robotic: %+v", s)
	}
	if s.SynthesisTime != 100*time.Second {
		t.Fatalf("ot2_b not counted synthesis: %v", s.SynthesisTime)
	}
}

func TestRenderTable1(t *testing.T) {
	s := Summary{
		TWH:           8*time.Hour + 12*time.Minute,
		CCWH:          387,
		SynthesisTime: 5*time.Hour + 10*time.Minute,
		TransferTime:  3*time.Hour + 2*time.Minute,
		TotalColors:   128,
		TimePerColor:  4 * time.Minute,
	}
	var buf bytes.Buffer
	RenderTable1(&buf, s)
	out := buf.String()
	for _, want := range []string{
		"Time without humans", "8 hours 12 mins",
		"Completed commands without humans", "387",
		"Synthesis time", "5 hours 10 mins",
		"Transfer time", "3 hours 2 mins",
		"Total colors mixed", "128",
		"Time per color", "4 mins",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestFmtDur(t *testing.T) {
	cases := map[time.Duration]string{
		4 * time.Minute:                "4 mins",
		8*time.Hour + 12*time.Minute:   "8 hours 12 mins",
		61 * time.Minute:               "1 hours 1 mins",
		3*time.Minute + 48*time.Second: "4 mins",
	}
	for d, want := range cases {
		if got := fmtDur(d); got != want {
			t.Fatalf("fmtDur(%v) = %q, want %q", d, got, want)
		}
	}
}

func TestComputeModuleBreakdown(t *testing.T) {
	sent := func(at time.Duration, module, workflow string, wait time.Duration) wei.Event {
		return wei.Event{Time: sim.Epoch.Add(at), Kind: wei.EvCommandSent,
			Module: module, Workflow: workflow, QueueWait: wait}
	}
	done := func(at time.Duration, module, workflow string, dur time.Duration) wei.Event {
		return wei.Event{Time: sim.Epoch.Add(at), Kind: wei.EvCommandDone,
			Module: module, Workflow: workflow, Duration: dur}
	}
	events := []wei.Event{
		{Time: sim.Epoch, Kind: wei.EvWorkflowStart, Workflow: "a"},
		sent(0, "pf400", "a", 0),
		done(30*time.Second, "pf400", "a", 30*time.Second),
		sent(40*time.Second, "pf400", "b", 10*time.Second),
		done(70*time.Second, "pf400", "b", 30*time.Second),
		sent(70*time.Second, "camera", "b", 0),
		{Time: sim.Epoch.Add(72 * time.Second), Kind: wei.EvCommandFailed,
			Module: "camera", Workflow: "b", Duration: 2 * time.Second},
		{Time: sim.Epoch.Add(100 * time.Second), Kind: wei.EvWorkflowEnd, Workflow: "b"},
	}
	s := Compute(events, 0)
	pf := s.Modules["pf400"]
	if pf.Commands != 2 || pf.Busy != time.Minute || pf.QueueWait != 10*time.Second {
		t.Fatalf("pf400 = %+v", pf)
	}
	if want := float64(time.Minute) / float64(100*time.Second); pf.Utilization != want {
		t.Fatalf("pf400 utilization = %v, want %v", pf.Utilization, want)
	}
	if cam := s.Modules["camera"]; cam.Failed != 1 || cam.Busy != 2*time.Second || cam.Commands != 0 {
		t.Fatalf("camera = %+v", cam)
	}
}
