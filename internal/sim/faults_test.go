package sim

import (
	"errors"
	"math"
	"testing"
)

func TestNilInjectorInjectsNothing(t *testing.T) {
	var in *Injector
	for i := 0; i < 100; i++ {
		if err := in.Check("ot2", "run_protocol"); err != nil {
			t.Fatalf("nil injector produced %v", err)
		}
	}
	if in.Total() != 0 {
		t.Fatal("nil injector Total != 0")
	}
	if in.injected() != nil {
		t.Fatal("nil injector Injected != nil")
	}
}

func TestZeroPlanInjectsNothing(t *testing.T) {
	in := NewInjector(FaultPlan{}, NewRNG(1))
	for i := 0; i < 1000; i++ {
		if err := in.Check("pf400", "transfer"); err != nil {
			t.Fatalf("zero plan produced %v", err)
		}
	}
}

func TestInjectionRates(t *testing.T) {
	in := NewInjector(FaultPlan{PReceive: 0.1, PProcess: 0.05, PReport: 0.02}, NewRNG(2))
	const n = 20000
	for i := 0; i < n; i++ {
		in.Check("m", "a")
	}
	counts := in.injected()
	// Receive fires first, so its empirical rate should be ~0.1.
	if frac := float64(counts[FaultReceive]) / n; math.Abs(frac-0.1) > 0.01 {
		t.Fatalf("receive rate %v, want ~0.1", frac)
	}
	if counts[FaultProcess] == 0 || counts[FaultReport] == 0 {
		t.Fatalf("process/report faults never fired: %v", counts)
	}
	if in.Total() != counts[FaultReceive]+counts[FaultProcess]+counts[FaultReport] {
		t.Fatalf("Total %d inconsistent with per-kind counts %v", in.Total(), counts)
	}
}

func TestFaultErrorWrapsSentinel(t *testing.T) {
	in := NewInjector(FaultPlan{PReceive: 1}, NewRNG(3))
	err := in.Check("camera", "take_picture")
	if err == nil {
		t.Fatal("PReceive=1 did not inject")
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("errors.Is(%v, ErrInjected) = false", err)
	}
	if err.Kind != FaultReceive || err.Module != "camera" || err.Action != "take_picture" {
		t.Fatalf("fault fields wrong: %+v", err)
	}
	if err.Error() == "" {
		t.Fatal("empty error string")
	}
}

func TestFaultKindString(t *testing.T) {
	cases := map[FaultKind]string{
		FaultReceive:  "receive",
		FaultProcess:  "process",
		FaultReport:   "report",
		FaultKind(42): "FaultKind(42)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Fatalf("FaultKind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestInjectorDeterminism(t *testing.T) {
	mk := func() []FaultKind {
		in := NewInjector(FaultPlan{PReceive: 0.2, PProcess: 0.2}, NewRNG(7))
		var seq []FaultKind
		for i := 0; i < 200; i++ {
			if err := in.Check("m", "a"); err != nil {
				seq = append(seq, err.Kind)
			}
		}
		return seq
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic injection count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic fault sequence at %d", i)
		}
	}
}
