package portal

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"
)

func rec(exp string, run int, t time.Time, fields map[string]any) Record {
	return Record{Experiment: exp, Run: run, Time: t, Fields: fields}
}

// ingestOne writes rec to dst as a one-record unkeyed batch and returns
// its ID.
func ingestOne(dst Ingestor, rec Record) (string, error) {
	ids, err := dst.IngestBatchKeyed("", []Record{rec})
	if err != nil {
		return "", err
	}
	return ids[0], nil
}

func TestIngestAssignsIDs(t *testing.T) {
	s := NewStore()
	id1, err := ingestOne(s, rec("e1", 1, time.Now(), nil))
	if err != nil {
		t.Fatal(err)
	}
	id2, err := ingestOne(s, rec("e1", 2, time.Now(), nil))
	if err != nil {
		t.Fatal(err)
	}
	if id1 == id2 || id1 == "" {
		t.Fatalf("ids: %q, %q", id1, id2)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestIngestValidation(t *testing.T) {
	s := NewStore()
	if _, err := ingestOne(s, Record{}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("empty record: %v, want ErrInvalid", err)
	}
	if _, err := ingestOne(s, Record{ID: "x", Experiment: "e"}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("record with a supplied id: %v, want ErrInvalid", err)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after rejected records", s.Len())
	}
	if id, err := ingestOne(s, Record{Experiment: "e"}); err != nil || id != "rec-000001" {
		t.Fatalf("valid record = %q, %v; want rec-000001", id, err)
	}
}

func TestGet(t *testing.T) {
	s := NewStore()
	id, _ := ingestOne(s, rec("e1", 3, time.Now(), map[string]any{"k": "v"}))
	got, err := s.Get(id)
	if err != nil || got.Run != 3 || got.Fields["k"] != "v" {
		t.Fatalf("Get = %+v, %v", got, err)
	}
	// Only the canonical spelling of an assigned position is an ID.
	for _, bad := range []string{"nope", "rec-000002", "rec-1", "rec-000000", "rec-+00001", "rec--00001"} {
		if _, err := s.Get(bad); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get(%q) err = %v, want ErrNotFound", bad, err)
		}
	}
}

func TestSearchFilters(t *testing.T) {
	s := NewStore()
	t0 := time.Date(2023, 8, 16, 9, 0, 0, 0, time.UTC)
	for i := 0; i < 10; i++ {
		exp := "a"
		if i%2 == 1 {
			exp = "b"
		}
		ingestOne(s, rec(exp, i, t0.Add(time.Duration(i)*time.Minute), nil))
	}
	if got := s.Search(Query{Experiment: "a"}); len(got) != 5 {
		t.Fatalf("experiment filter: %d", len(got))
	}
	if got := s.Search(Query{Experiment: "b", Run: 3, HasRun: true}); len(got) != 1 || got[0].Run != 3 {
		t.Fatalf("run filter: %+v", got)
	}
	if got := s.Search(Query{After: t0.Add(5 * time.Minute)}); len(got) != 5 {
		t.Fatalf("after filter: %d", len(got))
	}
	if got := s.Search(Query{Before: t0.Add(5 * time.Minute)}); len(got) != 5 {
		t.Fatalf("before filter: %d", len(got))
	}
	if got := s.Search(Query{Limit: 3}); len(got) != 3 {
		t.Fatalf("limit: %d", len(got))
	}
	if got := s.Search(Query{Experiment: "zz"}); len(got) != 0 {
		t.Fatalf("no-match: %d", len(got))
	}
}

func TestExperimentsList(t *testing.T) {
	s := NewStore()
	ingestOne(s, rec("zeta", 1, time.Now(), nil))
	ingestOne(s, rec("alpha", 1, time.Now(), nil))
	ingestOne(s, rec("alpha", 2, time.Now(), nil))
	got := s.Experiments()
	if len(got) != 2 || got[0] != "alpha" || got[1] != "zeta" {
		t.Fatalf("Experiments = %v", got)
	}
}

func TestSummarizeFigure3Shape(t *testing.T) {
	// The paper's Figure 3: an experiment of 12 runs × 15 samples = 180,
	// with one image per record.
	s := NewStore()
	t0 := time.Date(2023, 8, 16, 9, 0, 0, 0, time.UTC)
	for run := 1; run <= 12; run++ {
		ingestOne(s, Record{
			Experiment: "color_picker_20230816",
			Run:        run,
			Time:       t0.Add(time.Duration(run) * 40 * time.Minute),
			Fields:     map[string]any{"samples": 15, "best_score": float64(40 - run)},
			Files:      map[string][]byte{"plate.png": []byte("fakepng")},
		})
	}
	sum, err := s.Summarize("color_picker_20230816")
	if err != nil {
		t.Fatal(err)
	}
	if sum.Runs != 12 || sum.Samples != 180 || sum.Images != 12 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.BestScore != 28 {
		t.Fatalf("best score = %v", sum.BestScore)
	}
	if !sum.Last.After(sum.First) {
		t.Fatal("time window wrong")
	}
	if _, err := s.Summarize("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing summary err = %v", err)
	}
}

func TestRenderViews(t *testing.T) {
	s := NewStore()
	id, _ := ingestOne(s, Record{
		Experiment: "exp",
		Run:        12,
		Time:       time.Date(2023, 8, 16, 12, 0, 0, 0, time.UTC),
		Fields:     map[string]any{"best_score": 9.5, "samples": 15},
		Files:      map[string][]byte{"plate.png": make([]byte, 100)},
	})
	var buf bytes.Buffer
	sum, _ := s.Summarize("exp")
	RenderSummary(&buf, sum)
	out := buf.String()
	for _, want := range []string{"Experiment: exp", "Runs:     1", "Samples:  15"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary render missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	recGot, _ := s.Get(id)
	RenderRecord(&buf, recGot)
	out = buf.String()
	for _, want := range []string{"run #12", "best_score", "plate.png", "100 bytes"} {
		if !strings.Contains(out, want) {
			t.Fatalf("record render missing %q:\n%s", want, out)
		}
	}
}

func TestFileSizes(t *testing.T) {
	r := Record{Files: map[string][]byte{"a.png": make([]byte, 5), "b.bin": make([]byte, 9)}}
	sizes := r.FileSizes()
	if sizes["a.png"] != 5 || sizes["b.bin"] != 9 {
		t.Fatalf("sizes = %v", sizes)
	}
}

func TestConcurrentIngestAndSearch(t *testing.T) {
	s := NewStore()
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func(i int) {
			for j := 0; j < 50; j++ {
				ingestOne(s, rec("conc", i*50+j, time.Now(), nil))
				s.Search(Query{Experiment: "conc", Limit: 5})
			}
			done <- struct{}{}
		}(i)
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	if s.Len() != 400 {
		t.Fatalf("Len = %d", s.Len())
	}
}

// TestCloseRejectsIngestInMemory: Close's contract — records ingested
// after Close are rejected — holds for the in-memory store too, not just
// the disk-backed one.
func TestCloseRejectsIngestInMemory(t *testing.T) {
	s := NewStore()
	if _, err := ingestOne(s, Record{Experiment: "e", Time: time.Now()}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ingestOne(s, Record{Experiment: "e", Time: time.Now()}); err == nil {
		t.Fatal("closed in-memory store accepted a record")
	}
	// Reads keep working.
	if s.Len() != 1 || len(s.Search(Query{Experiment: "e"})) != 1 {
		t.Fatal("reads broken after Close")
	}
}
