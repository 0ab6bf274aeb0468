package sim

import (
	"context"
	"math"
	"testing"

	"ropus/internal/faultinject"
	"ropus/internal/qos"
	"ropus/internal/telemetry"
)

// searchOrderAgg is a small trace with a spike in every week-slot
// group, so θ degrades smoothly with capacity and clamped limits land
// on either side of feasibility.
func searchOrderAgg() *Aggregate {
	cos1 := make([]float64, 56)
	cos2 := make([]float64, 56)
	for i := range cos1 {
		cos1[i] = 1
		cos2[i] = float64(1 + i%3)
		if i%7 == 0 {
			cos2[i] = 8
		}
	}
	return batchAgg(cos1, cos2)
}

// TestSearchCeilingFirstParity pins the order of the first probes: a
// clamped search (limit < TotalPeak) replays its ceiling alone — one
// pass of one lane, and nothing else when it does not fit — every
// other search keeps the ride-along first pass, and every regime
// returns the reference bisection's outcome bit for bit.
func TestSearchCeilingFirstParity(t *testing.T) {
	a := searchOrderAgg() // CoS1Peak 1, TotalPeak 9
	zero := batchAgg(make([]float64, 56), make([]float64, 56))
	base := Config{SlotsPerDay: 4, DeadlineSlots: 2, Commitment: qos.PoolCommitment{Theta: 0.9}}
	ctx := context.Background()
	const (
		outcomeOnly     = iota
		ceilingOnly     // one pass of one lane, hintDepth untouched
		ceilingThenTree // the ceiling lane alone, then midpoint trees
		rideAlong       // the ceiling rides the first tree pass
	)
	cases := []struct {
		name     string
		agg      *Aggregate
		limit    float64
		feasible bool
		order    int
	}{
		{name: "clamped ceiling does not fit", agg: a, limit: 3, order: ceilingOnly},
		{name: "clamped feasible", agg: a, limit: 8.5, feasible: true, order: ceilingThenTree},
		{name: "unclamped", agg: a, limit: 20, feasible: true, order: rideAlong},
		{name: "limit equals TotalPeak", agg: a, limit: 9, feasible: true, order: rideAlong},
		{name: "CoS1Peak above limit", agg: a, limit: 0.5, order: ceilingOnly},
		{name: "all-zero workloads", agg: zero, limit: 4, feasible: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := tc.agg.searchBisect(ctx, base, tc.limit, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			if want.Feasible != tc.feasible {
				t.Fatalf("reference feasible = %v, the case wants %v", want.Feasible, tc.feasible)
			}
			reg := telemetry.NewRegistry()
			inj := faultinject.MustScript(1) // no rules: counts hits
			cfg := base
			cfg.Hooks = telemetry.New(reg, nil)
			cfg.Inject = inj
			br := NewBatchReplayer()
			// Both ceilingOnly probes are deep in deficit: adopting their
			// workFrac would turn this hint into depth 1.
			br.hintDepth = searchDepth
			got, err := tc.agg.searchKaryWith(ctx, cfg, tc.limit, 0.05, br)
			if err != nil {
				t.Fatal(err)
			}
			if got != want ||
				math.Float64bits(got.Capacity) != math.Float64bits(want.Capacity) ||
				math.Float64bits(got.Result.Theta) != math.Float64bits(want.Result.Theta) {
				t.Fatalf("kary=%+v, bisect=%+v", got, want)
			}
			passes := reg.Counter("sim_batch_passes_total").Value()
			lanes := reg.Counter("sim_batch_lanes_total").Value()
			if hits := int64(inj.Hits("sim.replay")); hits != passes {
				t.Errorf("sim.replay hits = %d, want one per trace pass (%d)", hits, passes)
			}
			switch tc.order {
			case outcomeOnly:
				return
			case ceilingOnly:
				if passes != 1 || lanes != 1 {
					t.Errorf("passes=%d lanes=%d, want exactly one pass of one lane", passes, lanes)
				}
				if br.hintDepth != searchDepth {
					t.Errorf("hintDepth = %d after a lone ceiling probe, want it untouched (%d)", br.hintDepth, searchDepth)
				}
				return
			}
			// Read the first pass's lane count from a second search on a
			// fresh registry that an injected error stops at its second pass.
			reg2 := telemetry.NewRegistry()
			cfg2 := base
			cfg2.Hooks = telemetry.New(reg2, nil)
			cfg2.Inject = faultinject.MustScript(1, faultinject.Rule{Point: "sim.replay", Nth: 2})
			_, _ = tc.agg.searchKaryWith(ctx, cfg2, tc.limit, 0.05, NewBatchReplayer())
			firstLanes := reg2.Counter("sim_batch_lanes_total").Value()
			if alone := tc.order == ceilingThenTree; alone != (firstLanes == 1) {
				t.Errorf("first pass carried %d lanes, want the ceiling alone: %v", firstLanes, alone)
			}
			// Every pass of a feasible search is in sim_search_passes_total,
			// the ceiling's own included.
			if sp := reg.Counter("sim_search_passes_total").Value(); sp != passes || passes < 2 {
				t.Errorf("sim_search_passes_total = %d, batch passes = %d, want equal and >= 2", sp, passes)
			}
		})
	}
}
