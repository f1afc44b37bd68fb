package wei

import (
	"context"
	"testing"
	"time"

	"colormatch/internal/sim"
)

// BenchmarkEngineWorkflow measures the engine's per-workflow overhead
// (dispatch, events, records) with instant module actions.
func BenchmarkEngineWorkflow(b *testing.B) {
	clock := sim.NewSimClockAt(sim.Epoch)
	reg := NewRegistry()
	m := NewBase("dev", "t", "")
	m.Register(ActionInfo{Name: "noop"}, func(ctx context.Context, args Args) (Result, error) {
		return Result{"ok": true}, nil
	})
	reg.Add(m)
	eng := NewEngine(reg, clock, NewEventLog(clock))
	wf := &WorkflowSpec{Name: "bench", Steps: []Step{
		{Name: "a", Module: "dev", Action: "noop"},
		{Name: "b", Module: "dev", Action: "noop"},
		{Name: "c", Module: "dev", Action: "noop"},
	}}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.RunWorkflow(ctx, wf, nil); err != nil {
			b.Fatal(err)
		}
	}
	_ = time.Second
}

// BenchmarkParseWorkflow measures the YAML path of workflow loading.
func BenchmarkParseWorkflow(b *testing.B) {
	src := []byte(sampleWorkflow)
	for i := 0; i < b.N; i++ {
		if _, err := ParseWorkflow(src); err != nil {
			b.Fatal(err)
		}
	}
}
