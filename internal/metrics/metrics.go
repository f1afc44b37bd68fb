// Package metrics computes the paper's proposed self-driving-lab metrics
// (§4, Table 1) from an experiment's event log:
//
//   - TWH  — time without human input: "the longest time that an experiment
//     ran without human intervention"
//   - CCWH — commands completed without human input: "the number of commands
//     sent and successfully executed by the instruments ... without human
//     intervention"
//   - time per color, and its synthesis/transfer decomposition: "we can also
//     divide the total run time into synthesis time, that used specifically
//     to mix colors, and transfer time, that used to move samples between
//     instruments"
package metrics

import (
	"fmt"
	"io"
	"time"

	"colormatch/internal/wei"
)

// RoboticModuleTypes identifies which module names count as robotic
// instruments for the CCWH metric. The camera and compute/publish steps are
// excluded, matching the paper's count of "distinct robotic actions".
var roboticModules = map[string]bool{
	"sciclops": true,
	"pf400":    true,
	"barty":    true,
}

// isRobotic reports whether a module counts as a robotic instrument. Any
// number of liquid handlers (ot2, ot2_b, ...) count.
func isRobotic(module string) bool {
	if roboticModules[module] {
		return true
	}
	return len(module) >= 3 && module[:3] == "ot2"
}

// Summary is the computed metric set for one experiment.
type Summary struct {
	// TWH is the longest stretch of the experiment without human input.
	TWH time.Duration
	// Wall is the full experiment duration (first to last event).
	Wall time.Duration
	// CCWH counts completed robotic commands in the longest
	// without-humans stretch.
	CCWH int
	// CompletedCommands counts all completed commands (incl. camera).
	CompletedCommands int
	// FailedCommands counts command attempts that failed.
	FailedCommands int
	// SynthesisTime sums liquid-handler command durations.
	SynthesisTime time.Duration
	// TransferTime sums manipulator command durations.
	TransferTime time.Duration
	// TotalColors is the number of color samples produced.
	TotalColors int
	// TimePerColor is Wall / TotalColors.
	TimePerColor time.Duration
	// Uploads counts publish events; MeanUploadInterval is the average
	// spacing between them.
	Uploads            int
	MeanUploadInterval time.Duration
	// Modules breaks occupancy down per module: how long each instrument
	// was busy, what fraction of the experiment that is, and how long
	// commands queued for it under module-lease scheduling. The map is nil
	// when the log holds no command events.
	Modules map[string]ModuleUsage
}

// ModuleUsage is one module's share of an experiment (or of a fleet, after
// Aggregate): occupancy, queue pressure, and command counts.
type ModuleUsage struct {
	// Commands counts completed commands on the module.
	Commands int
	// Failed counts failed command attempts.
	Failed int
	// Busy is the module's total occupancy: durations of completed commands
	// plus failed attempts (a faulted command still held the instrument).
	Busy time.Duration
	// QueueWait is total time commands waited for the module's lease (zero
	// without module-lease scheduling).
	QueueWait time.Duration
	// Utilization is Busy relative to the experiment Wall (after Aggregate:
	// relative to total robot time consumed across the fleet).
	Utilization float64
}

// Compute derives a Summary from an event log. totalColors is supplied by
// the application (number of samples created and measured).
func Compute(events []wei.Event, totalColors int) Summary {
	var s Summary
	s.TotalColors = totalColors
	if len(events) == 0 {
		return s
	}
	start := events[0].Time
	end := events[len(events)-1].Time
	s.Wall = end.Sub(start)

	// Split the timeline at human-input events; measure each stretch.
	stretchStart := start
	bestStretch := time.Duration(0)
	bestRange := [2]time.Time{start, end}
	for _, e := range events {
		if e.Kind == wei.EvHumanInput {
			if d := e.Time.Sub(stretchStart); d > bestStretch {
				bestStretch = d
				bestRange = [2]time.Time{stretchStart, e.Time}
			}
			stretchStart = e.Time
		}
	}
	if d := end.Sub(stretchStart); d > bestStretch {
		bestStretch = d
		bestRange = [2]time.Time{stretchStart, end}
	}
	s.TWH = bestStretch

	var uploadTimes []time.Time
	for _, e := range events {
		switch e.Kind {
		case wei.EvCommandDone:
			s.CompletedCommands++
			inStretch := !e.Time.Before(bestRange[0]) && !e.Time.After(bestRange[1])
			if inStretch && isRobotic(e.Module) {
				s.CCWH++
			}
			switch {
			case e.Module == "pf400":
				s.TransferTime += e.Duration
			case len(e.Module) >= 3 && e.Module[:3] == "ot2":
				s.SynthesisTime += e.Duration
			}
		case wei.EvCommandFailed:
			s.FailedCommands++
		case wei.EvPublish:
			s.Uploads++
			uploadTimes = append(uploadTimes, e.Time)
		}
	}
	if mods := ModuleBreakdown(events, s.Wall); len(mods) > 0 {
		s.Modules = mods
	}
	if totalColors > 0 {
		s.TimePerColor = s.Wall / time.Duration(totalColors)
	}
	if len(uploadTimes) > 1 {
		span := uploadTimes[len(uploadTimes)-1].Sub(uploadTimes[0])
		s.MeanUploadInterval = span / time.Duration(len(uploadTimes)-1)
	}
	return s
}

// ModuleBreakdown derives just the per-module usage table from an event log,
// without the rest of the Table 1 metrics. wall scales utilization; pass the
// experiment duration (or 0 to leave Utilization unset).
func ModuleBreakdown(events []wei.Event, wall time.Duration) map[string]ModuleUsage {
	out := map[string]ModuleUsage{}
	for _, e := range events {
		if e.Module == "" {
			continue
		}
		u := out[e.Module]
		switch e.Kind {
		case wei.EvCommandDone:
			u.Commands++
			u.Busy += e.Duration
		case wei.EvCommandFailed:
			u.Failed++
			u.Busy += e.Duration
		case wei.EvCommandSent, wei.EvGateWait:
			u.QueueWait += e.QueueWait
		default:
			continue
		}
		out[e.Module] = u
	}
	if wall > 0 {
		for name, u := range out {
			u.Utilization = float64(u.Busy) / float64(wall)
			out[name] = u
		}
	}
	return out
}

// Aggregate merges per-campaign summaries into one fleet-level summary.
// Command counts, instrument times, colors, uploads and Wall sum — Wall
// becomes total robot time consumed across the fleet. TWH and CCWH keep
// their Table 1 pairing: both come from the single campaign with the
// longest human-free stretch, since commands from parallel campaigns cannot
// complete within one stretch. TimePerColor and MeanUploadInterval are
// recomputed from the merged totals, and the per-module breakdowns merge
// with Utilization re-derived against the summed Wall.
func Aggregate(parts []Summary) Summary {
	var s Summary
	var intervalSpan time.Duration
	intervalN := 0
	for _, p := range parts {
		if p.TWH > s.TWH {
			s.TWH = p.TWH
			s.CCWH = p.CCWH
		}
		s.Wall += p.Wall
		s.CompletedCommands += p.CompletedCommands
		s.FailedCommands += p.FailedCommands
		s.SynthesisTime += p.SynthesisTime
		s.TransferTime += p.TransferTime
		s.TotalColors += p.TotalColors
		s.Uploads += p.Uploads
		if p.Uploads > 1 {
			intervalSpan += p.MeanUploadInterval * time.Duration(p.Uploads-1)
			intervalN += p.Uploads - 1
		}
		for name, pu := range p.Modules {
			if s.Modules == nil {
				s.Modules = map[string]ModuleUsage{}
			}
			u := s.Modules[name]
			u.Commands += pu.Commands
			u.Failed += pu.Failed
			u.Busy += pu.Busy
			u.QueueWait += pu.QueueWait
			s.Modules[name] = u
		}
	}
	if s.TotalColors > 0 {
		s.TimePerColor = s.Wall / time.Duration(s.TotalColors)
	}
	if intervalN > 0 {
		s.MeanUploadInterval = intervalSpan / time.Duration(intervalN)
	}
	if s.Wall > 0 {
		for name, u := range s.Modules {
			u.Utilization = float64(u.Busy) / float64(s.Wall)
			s.Modules[name] = u
		}
	}
	return s
}

// fmtDur renders a duration in the paper's "8 hours 12 mins" style.
func fmtDur(d time.Duration) string {
	d = d.Round(time.Minute)
	h := int(d.Hours())
	m := int(d.Minutes()) - 60*h
	switch {
	case h > 0:
		return fmt.Sprintf("%d hours %d mins", h, m)
	default:
		return fmt.Sprintf("%d mins", m)
	}
}

// RenderTable1 writes the summary as the paper's Table 1: "Proposed metrics
// for self-driving labs and our best results for a color picker batch size
// of 1."
func RenderTable1(w io.Writer, s Summary) {
	fmt.Fprintf(w, "%-42s %s\n", "Metric", "Value")
	fmt.Fprintf(w, "%-42s %s\n", "Time without humans", fmtDur(s.TWH))
	fmt.Fprintf(w, "%-42s %d\n", "Completed commands without humans", s.CCWH)
	fmt.Fprintf(w, "%-42s %s\n", "Synthesis time", fmtDur(s.SynthesisTime))
	fmt.Fprintf(w, "%-42s %s\n", "Transfer time", fmtDur(s.TransferTime))
	fmt.Fprintf(w, "%-42s %d\n", "Total colors mixed", s.TotalColors)
	fmt.Fprintf(w, "%-42s %s\n", "Time per color", fmtDur(s.TimePerColor))
}
