package flow

import (
	"context"
	"fmt"

	"colormatch/internal/portal"
)

// publishFlow builds the shared validate-then-ingest publication shape:
// a named validation step, which also mints the run's idempotency key, then
// an ingest step that retries since the portal is a remote service in the
// distributed deployment. Every attempt sends the record as a one-record
// batch under that one key, so a retry after a lost response gets the
// original ID back instead of ingesting a second copy.
func publishFlow(name, validateStep string, validate func(portal.Record) error, dest portal.Ingestor) *Flow {
	return &Flow{
		Name: name,
		Steps: []Step{
			{
				Name: validateStep,
				Run: func(ctx context.Context, in Input) (Input, error) {
					rec, ok := in["record"].(portal.Record)
					if !ok {
						return nil, fmt.Errorf("publish: input has no record")
					}
					if err := validate(rec); err != nil {
						return nil, err
					}
					return Input{"record": rec, "key": portal.NewBatchKey()}, nil
				},
			},
			{
				Name:    "ingest",
				Retries: 2,
				Run: func(ctx context.Context, in Input) (Input, error) {
					rec := in["record"].(portal.Record)
					ids, err := dest.IngestBatchKeyed(in["key"].(string), []portal.Record{rec})
					if err != nil {
						return nil, err
					}
					return Input{"id": ids[0]}, nil
				},
			},
		},
	}
}

// PublishColorPicker builds the paper's "PublishColorPickerRPL" flow: gather
// the record, validate it, and ingest it into the data portal.
func PublishColorPicker(dest portal.Ingestor) *Flow {
	return publishFlow("PublishColorPickerRPL", "gather", func(rec portal.Record) error {
		if rec.Experiment == "" {
			return fmt.Errorf("publish: record missing experiment")
		}
		return nil
	}, dest)
}

// PublishFleetSummary builds the fleet-level publication flow: one record
// per fleet run carrying the aggregate campaign outcomes (completed/failed
// counts, makespan, speedup), validated and then ingested with retries —
// the same shape as PublishColorPicker one level up.
func PublishFleetSummary(dest portal.Ingestor) *Flow {
	return publishFlow("PublishFleetSummaryRPL", "summarize", func(rec portal.Record) error {
		if rec.Experiment == "" {
			return fmt.Errorf("publish: fleet record missing experiment")
		}
		if _, ok := rec.Fields["campaigns"]; !ok {
			return fmt.Errorf("publish: fleet record missing campaigns field")
		}
		return nil
	}, dest)
}
