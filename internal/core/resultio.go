package core

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"colormatch/internal/metrics"
	"colormatch/internal/solver"
)

// resultFile is the JSON schema for persisted results. The paper stresses
// "automated publication of results for experiment tracking and post-hoc
// analysis"; alongside the portal, results can be saved to disk for later
// comparison. The event log is left out: it would dominate the file.
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

// SaveResult writes a result to path as JSON, without its event log.
func SaveResult(path string, r *Result) error {
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
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return fmt.Errorf("core: encode result: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("core: save result: %w", err)
	}
	return nil
}
