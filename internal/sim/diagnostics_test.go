package sim

import (
	"math"
	"math/rand"
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
	if math.Float64bits(diag.Theta) != math.Float64bits(res.Theta) {
		t.Errorf("Diagnose theta %v != Replay theta %v", diag.Theta, res.Theta)
	}
	if diag.WorstWeek != 0 || diag.WorstSlot != 0 || diag.SlotsPerDay != 2 {
		t.Errorf("worst at week %d, slot %d of %d; want week 0, slot 0 of 2 (the hot slot)",
			diag.WorstWeek, diag.WorstSlot, diag.SlotsPerDay)
	}
	// Slot 0 serves 2+1+2+1+1+1+1 = 9 of 3+1+4+1+1+1+1 = 12.
	if got, want := diag.String(), "theta=0.7500 (worst at week 0, slot 0 of 2)"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
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
	if diag.Theta != 1 || diag.WorstWeek != 0 || diag.WorstSlot != 0 {
		t.Errorf("idle workload: theta %v at week %d, slot %d; want 1 at (0, 0)",
			diag.Theta, diag.WorstWeek, diag.WorstSlot)
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

// worstGroupDense is the brute-force argmin Diagnose must reproduce:
// every (week, slot) group's ratio from a dense pass over the trace, the
// first strict minimum in group order, (0, 0) when none is below 1.
func worstGroupDense(a *Aggregate, capacity float64, t int) (week, slot int) {
	n := a.Slots()
	weeks := max(n/(7*t), 1)
	requested := make([]float64, weeks*t)
	served := make([]float64, weeks*t)
	for i := 0; i < n; i++ {
		g := min(i/(7*t), weeks-1)*t + i%t
		requested[g] += a.cos2[i]
		served[g] += math.Min(a.cos2[i], math.Max(capacity-a.cos1[i], 0))
	}
	worst := 1.0
	for g := range requested {
		ratio := 1.0
		if requested[g] > 1e-9 {
			ratio = served[g] / requested[g]
		}
		if ratio < worst {
			worst, week, slot = ratio, g/t, g%t
		}
	}
	return week, slot
}

// TestDiagnoseKernelProperty ties Diagnose to the kernel over random
// traces: at every lane capacity its θ is Replay's bit for bit, and the
// group it reports is the dense argmin, although it only looks at the
// hot groups the kernel's pass left behind.
func TestDiagnoseKernelProperty(t *testing.T) {
	trials := 1500
	if testing.Short() {
		trials = 200
	}
	r := rand.New(rand.NewSource(29))
	for trial := 0; trial < trials; trial++ {
		c := randSparseCase(r)
		if c.corrupt {
			continue
		}
		for _, capacity := range c.caps {
			cfg := c.cfg
			cfg.Capacity = capacity
			res, err := c.agg.Replay(cfg)
			if err != nil {
				t.Fatal(err)
			}
			diag, err := c.agg.Diagnose(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(diag.Theta) != math.Float64bits(res.Theta) {
				t.Fatalf("trial %d cap=%v: Diagnose theta %v, Replay theta %v", trial, capacity, diag.Theta, res.Theta)
			}
			week, slot := worstGroupDense(c.agg, capacity, cfg.SlotsPerDay)
			if diag.WorstWeek != week || diag.WorstSlot != slot {
				t.Fatalf("trial %d cap=%v (n=%d spd=%d): worst at (%d, %d), dense argmin (%d, %d)",
					trial, capacity, c.agg.Slots(), cfg.SlotsPerDay, diag.WorstWeek, diag.WorstSlot, week, slot)
			}
		}
	}
}
