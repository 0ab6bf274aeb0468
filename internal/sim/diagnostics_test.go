package sim

import (
	"math"
	"testing"
)

func TestDiagnoseMatchesReplayTheta(t *testing.T) {
	// One week of 2-slot days with a hot slot 0 on two days.
	cos1 := make([]float64, 14)
	cos2 := make([]float64, 14)
	for d := 0; d < 7; d++ {
		cos2[2*d] = 1
		cos2[2*d+1] = 1
	}
	cos2[0] = 3
	cos2[4] = 4
	agg, err := NewAggregate([]Workload{{AppID: "a", CoS1: cos1, CoS2: cos2}})
	if err != nil {
		t.Fatal(err)
	}
	c := cfg(2, 0.5, 2, 2)
	res, err := agg.Replay(c)
	if err != nil {
		t.Fatal(err)
	}
	diag, err := agg.Diagnose(c)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(diag.Theta-res.Theta) > 1e-12 {
		t.Errorf("Diagnose theta %v != Replay theta %v", diag.Theta, res.Theta)
	}
	if diag.WorstSlot != 0 {
		t.Errorf("WorstSlot = %d, want 0 (the hot slot)", diag.WorstSlot)
	}
	if diag.Weeks != 1 || diag.SlotsPerDay != 2 {
		t.Errorf("dimensions = %d weeks x %d slots", diag.Weeks, diag.SlotsPerDay)
	}
	// Shortfall: slot 0 misses (3-2)+(4-2)=3 CPU-slots; slot 1 none.
	if math.Abs(diag.SlotShortfall[0]-3) > 1e-9 {
		t.Errorf("SlotShortfall[0] = %v, want 3", diag.SlotShortfall[0])
	}
	if diag.SlotShortfall[1] != 0 {
		t.Errorf("SlotShortfall[1] = %v, want 0", diag.SlotShortfall[1])
	}
	if got := diag.String(); got == "" {
		t.Error("empty String()")
	}
}

func TestDiagnoseIdleGroupsReportOne(t *testing.T) {
	agg, err := NewAggregate([]Workload{{AppID: "a", CoS1: make([]float64, 4), CoS2: make([]float64, 4)}})
	if err != nil {
		t.Fatal(err)
	}
	diag, err := agg.Diagnose(cfg(1, 0.5, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if diag.Theta != 1 {
		t.Errorf("idle workload theta = %v, want 1", diag.Theta)
	}
	for g, v := range diag.GroupTheta {
		if v != 1 {
			t.Errorf("GroupTheta[%d] = %v, want 1", g, v)
		}
	}
}

func TestDiagnoseConfigError(t *testing.T) {
	agg, err := NewAggregate([]Workload{{AppID: "a", CoS1: []float64{0}, CoS2: []float64{0}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agg.Diagnose(Config{}); err == nil {
		t.Error("invalid config accepted")
	}
}
