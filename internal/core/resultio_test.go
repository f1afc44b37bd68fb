package core

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// readResultFile decodes a file written by SaveResult.
func readResultFile(t *testing.T, path string) resultFile {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		t.Fatal(err)
	}
	return rf
}

func TestResultSaveLoadRoundTrip(t *testing.T) {
	app, _, _ := newTestApp(t, Config{
		Experiment:   "persist",
		BatchSize:    4,
		TotalSamples: 8,
	}, 13)
	res, err := app.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "result.json")
	if err := SaveResult(path, res); err != nil {
		t.Fatal(err)
	}
	back := readResultFile(t, path)

	if back.SchemaVersion != 1 {
		t.Fatalf("schema_version = %d", back.SchemaVersion)
	}
	if back.Config.Experiment != "persist" || back.Config.BatchSize != 4 ||
		back.Config.Metric != res.Config.Metric.String() {
		t.Fatalf("config = %+v", back.Config)
	}
	if len(back.Samples) != len(res.Samples) {
		t.Fatalf("samples = %d", len(back.Samples))
	}
	for i, s := range res.Samples {
		if !reflect.DeepEqual(back.Samples[i], toSampleJSON(s)) {
			t.Fatalf("sample %d = %+v, want %+v", i, back.Samples[i], toSampleJSON(s))
		}
	}
	if !reflect.DeepEqual(back.Trace, res.Trace) {
		t.Fatal("trace mismatch")
	}
	if back.Best.Score != res.Best.Score {
		t.Fatal("best mismatch")
	}
	if !reflect.DeepEqual(back.Metrics, res.Metrics) {
		t.Fatalf("metrics mismatch:\n%+v\n%+v", back.Metrics, res.Metrics)
	}
	if back.Published != len(res.RecordIDs) || back.Plates != res.Plates {
		t.Fatalf("published = %d, plates = %d", back.Published, back.Plates)
	}
	if !back.Start.Equal(res.Start) || !back.End.Equal(res.End) {
		t.Fatal("times mismatch")
	}
}

func TestResultSaveWithoutEvents(t *testing.T) {
	app, _, _ := newTestApp(t, Config{
		Experiment:   "noevents",
		BatchSize:    8,
		TotalSamples: 8,
	}, 14)
	res, err := app.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) == 0 {
		t.Fatal("run recorded no events")
	}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := SaveResult(path, res); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(data, &fields); err != nil {
		t.Fatal(err)
	}
	if _, ok := fields["events"]; ok {
		t.Fatal("result file carries the event log")
	}
	if back := readResultFile(t, path); len(back.Samples) != 8 {
		t.Fatalf("samples = %d", len(back.Samples))
	}
}
