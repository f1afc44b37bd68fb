package wei

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"colormatch/internal/yamlite"
)

const sampleWorkflow = `
name: cp_wf_mix_colors
steps:
  - name: move_to_ot2
    module: pf400
    action: transfer
    args:
      source: camera
      target: ot2.deck
  - name: mix
    module: ot2
    action: run_protocol
    args:
      protocol: mix_colors
      wells: $wells
  - module: camera
    action: take_picture
`

const sampleWorkcell = `
name: rpl_workcell
locations: [camera, ot2.deck, sciclops.exchange, trash]
modules:
  - name: sciclops
    type: plate_crane
  - name: pf400
    type: manipulator
  - name: ot2
    type: liquid_handler
    config:
      reservoir_capacity: 25000.0
  - name: barty
    type: liquid_replenisher
  - name: camera
    type: camera
`

func TestParseWorkflow(t *testing.T) {
	wf, err := ParseWorkflow([]byte(sampleWorkflow))
	if err != nil {
		t.Fatal(err)
	}
	if wf.Name != "cp_wf_mix_colors" || len(wf.Steps) != 3 {
		t.Fatalf("wf = %+v", wf)
	}
	if wf.Steps[0].Name != "move_to_ot2" || wf.Steps[0].Module != "pf400" {
		t.Fatalf("step0 = %+v", wf.Steps[0])
	}
	// Default step name is module.action.
	if wf.Steps[2].Name != "camera.take_picture" {
		t.Fatalf("step2 name = %q", wf.Steps[2].Name)
	}
	if wf.Steps[1].Args["wells"] != "$wells" {
		t.Fatalf("step1 args = %#v", wf.Steps[1].Args)
	}
}

func TestParseWorkflowErrors(t *testing.T) {
	bad := []string{
		"",                                 // empty
		"steps:\n  - module: a\n",          // missing name
		"name: x\n",                        // missing steps
		"name: x\nsteps: []\n",             // empty steps
		"name: x\nsteps:\n  - action: y\n", // step missing module
		"name: x\nsteps:\n  - module: y\n", // step missing action
	}
	for _, src := range bad {
		if _, err := ParseWorkflow([]byte(src)); err == nil {
			t.Errorf("ParseWorkflow(%q) succeeded", src)
		}
	}
}

func TestParseWorkcell(t *testing.T) {
	wc, err := ParseWorkcell([]byte(sampleWorkcell))
	if err != nil {
		t.Fatal(err)
	}
	if wc.Name != "rpl_workcell" || len(wc.Modules) != 5 {
		t.Fatalf("wc = %+v", wc)
	}
	if len(wc.Locations) != 4 {
		t.Fatalf("locations = %v", wc.Locations)
	}
	ot2, ok := wc.Module("ot2")
	if !ok || ot2.Type != "liquid_handler" || ot2.Config["reservoir_capacity"] != 25000.0 {
		t.Fatalf("ot2 = %+v", ot2)
	}
	if pf400, ok := wc.Module("pf400"); !ok || pf400.Type != "manipulator" {
		t.Fatalf("pf400 = %+v", pf400)
	}
	if _, ok := wc.Module("nope"); ok {
		t.Fatal("found nonexistent module")
	}
}

func TestParseWorkcellErrors(t *testing.T) {
	bad := []string{
		"",
		"name: x\n", // no modules
		"name: x\nmodules: []\n",
		"name: x\nmodules:\n  - name: a\n", // missing type
		"name: x\nmodules:\n  - name: a\n    type: t\n  - name: a\n    type: t\n", // dup
	}
	for _, src := range bad {
		if _, err := ParseWorkcell([]byte(src)); err == nil {
			t.Errorf("ParseWorkcell(%q) succeeded", src)
		}
	}
}

func TestValidateWorkflowAgainstWorkcell(t *testing.T) {
	wf, _ := ParseWorkflow([]byte(sampleWorkflow))
	wc, _ := ParseWorkcell([]byte(sampleWorkcell))
	if err := wf.Validate(wc); err != nil {
		t.Fatal(err)
	}
	bad := wf.Retarget("ot2", "ot2_b")
	if err := bad.Validate(wc); err == nil {
		t.Fatal("validation passed for unknown module")
	}
}

func TestRetarget(t *testing.T) {
	wf, _ := ParseWorkflow([]byte(sampleWorkflow))
	re := wf.Retarget("ot2", "ot2_b")
	if re.Steps[1].Module != "ot2_b" {
		t.Fatalf("retargeted step = %+v", re.Steps[1])
	}
	// Original untouched.
	if wf.Steps[1].Module != "ot2" {
		t.Fatal("Retarget mutated original")
	}
}

func TestSubstituteArgs(t *testing.T) {
	args := yamlite.Map{
		"protocol": "mix",
		"wells":    "$wells",
		"nested":   yamlite.Map{"v": "$vol", "keep": int64(2)},
		"list":     yamlite.List{"$vol", "x"},
	}
	params := map[string]any{
		"wells": []any{"A1", "A2"},
		"vol":   275.0,
	}
	got, err := SubstituteArgs(args, params)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]any{
		"protocol": "mix",
		"wells":    []any{"A1", "A2"},
		"nested":   map[string]any{"v": 275.0, "keep": int64(2)},
		"list":     []any{275.0, "x"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %#v", got)
	}
}

func TestSubstituteArgsUnresolved(t *testing.T) {
	if _, err := SubstituteArgs(yamlite.Map{"a": "$missing"}, nil); err == nil {
		t.Fatal("unresolved parameter accepted")
	}
}

func TestSubstituteArgsNil(t *testing.T) {
	got, err := SubstituteArgs(nil, nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("got %#v, %v", got, err)
	}
}

func TestWorkflowMarshalRoundTrip(t *testing.T) {
	wf, _ := ParseWorkflow([]byte(sampleWorkflow))
	data, err := wf.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseWorkflow(data)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, data)
	}
	if !reflect.DeepEqual(wf, back) {
		t.Fatalf("round trip mismatch:\n%#v\n%#v", wf, back)
	}
}

func TestWorkcellMarshalRoundTrip(t *testing.T) {
	wc, _ := ParseWorkcell([]byte(sampleWorkcell))
	data, err := wc.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseWorkcell(data)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, data)
	}
	if !reflect.DeepEqual(wc, back) {
		t.Fatalf("round trip mismatch:\n%#v\n%#v", wc, back)
	}
}

func TestLoadFromFiles(t *testing.T) {
	dir := t.TempDir()
	wfPath := filepath.Join(dir, "wf.yaml")
	wcPath := filepath.Join(dir, "wc.yaml")
	if err := os.WriteFile(wfPath, []byte(sampleWorkflow), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wcPath, []byte(sampleWorkcell), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadWorkflow(wfPath); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadWorkcell(wcPath); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadWorkflow(filepath.Join(dir, "missing.yaml")); err == nil {
		t.Fatal("missing file loaded")
	}
	if _, err := LoadWorkcell(filepath.Join(dir, "missing.yaml")); err == nil {
		t.Fatal("missing file loaded")
	}
}
