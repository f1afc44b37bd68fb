package core

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"colormatch/internal/color"
	"colormatch/internal/metrics"
	"colormatch/internal/solver"
	"colormatch/internal/wei"
)

// resultFile is the JSON schema for persisted results. The paper stresses
// "automated publication of results for experiment tracking and post-hoc
// analysis"; alongside the portal, results can be saved to disk and loaded
// back for later comparison.
type resultFile struct {
	SchemaVersion int             `json:"schema_version"`
	Config        configJSON      `json:"config"`
	Start         time.Time       `json:"start"`
	End           time.Time       `json:"end"`
	Samples       []sampleJSON    `json:"samples"`
	Trace         []TracePoint    `json:"trace"`
	Best          sampleJSON      `json:"best"`
	Metrics       metrics.Summary `json:"metrics"`
	Published     int             `json:"published"`
	Plates        int             `json:"plates"`
	Events        []wei.Event     `json:"events,omitempty"`
}

type configJSON struct {
	Experiment   string  `json:"experiment"`
	Target       [3]int  `json:"target"`
	Metric       string  `json:"metric"`
	BatchSize    int     `json:"batch_size"`
	TotalSamples int     `json:"total_samples"`
	StopScore    float64 `json:"stop_score,omitempty"`
	OT2          string  `json:"ot2"`
	WellVolume   float64 `json:"well_volume"`
	DeckMode     bool    `json:"deck_mode,omitempty"`
}

type sampleJSON struct {
	Ratios []float64 `json:"ratios"`
	Color  [3]int    `json:"color"`
	Score  float64   `json:"score"`
}

func toSampleJSON(s solver.Sample) sampleJSON {
	return sampleJSON{
		Ratios: s.Ratios,
		Color:  [3]int{int(s.Color.R), int(s.Color.G), int(s.Color.B)},
		Score:  s.Score,
	}
}

func fromSampleJSON(s sampleJSON) solver.Sample {
	return solver.Sample{
		Ratios: s.Ratios,
		Color:  color.RGB8{R: uint8(s.Color[0]), G: uint8(s.Color[1]), B: uint8(s.Color[2])},
		Score:  s.Score,
	}
}

// SaveResult writes a result to path as JSON. includeEvents controls
// whether the full event log is embedded (it dominates file size).
func SaveResult(path string, r *Result, includeEvents bool) error {
	rf := resultFile{
		SchemaVersion: 1,
		Config: configJSON{
			Experiment:   r.Config.Experiment,
			Target:       [3]int{int(r.Config.Target.R), int(r.Config.Target.G), int(r.Config.Target.B)},
			Metric:       r.Config.Metric.String(),
			BatchSize:    r.Config.BatchSize,
			TotalSamples: r.Config.TotalSamples,
			StopScore:    r.Config.StopScore,
			OT2:          r.Config.OT2,
			WellVolume:   r.Config.WellVolume,
			DeckMode:     r.Config.DeckMode,
		},
		Start:     r.Start,
		End:       r.End,
		Trace:     r.Trace,
		Best:      toSampleJSON(r.Best),
		Metrics:   r.Metrics,
		Published: len(r.RecordIDs),
		Plates:    r.Plates,
	}
	for _, s := range r.Samples {
		rf.Samples = append(rf.Samples, toSampleJSON(s))
	}
	if includeEvents {
		rf.Events = r.Events
	}
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return fmt.Errorf("core: encode result: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("core: save result: %w", err)
	}
	return nil
}

// LoadResult reads a result previously written by SaveResult. The file
// records how many records were published but not their IDs, so the loaded
// Result has no RecordIDs.
func LoadResult(path string) (*Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: load result: %w", err)
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("core: decode result: %w", err)
	}
	if rf.SchemaVersion != 1 {
		return nil, fmt.Errorf("core: unsupported result schema %d", rf.SchemaVersion)
	}
	metric, ok := color.ParseMetric(rf.Config.Metric)
	if !ok {
		return nil, fmt.Errorf("core: unknown metric %q in result file", rf.Config.Metric)
	}
	r := &Result{
		Config: Config{
			Experiment: rf.Config.Experiment,
			Target: color.RGB8{
				R: uint8(rf.Config.Target[0]),
				G: uint8(rf.Config.Target[1]),
				B: uint8(rf.Config.Target[2]),
			},
			Metric:       metric,
			BatchSize:    rf.Config.BatchSize,
			TotalSamples: rf.Config.TotalSamples,
			StopScore:    rf.Config.StopScore,
			OT2:          rf.Config.OT2,
			WellVolume:   rf.Config.WellVolume,
			DeckMode:     rf.Config.DeckMode,
		},
		Start:   rf.Start,
		End:     rf.End,
		Trace:   rf.Trace,
		Best:    fromSampleJSON(rf.Best),
		Metrics: rf.Metrics,
		Plates:  rf.Plates,
		Events:  rf.Events,
	}
	for _, s := range rf.Samples {
		r.Samples = append(r.Samples, fromSampleJSON(s))
	}
	return r, nil
}
