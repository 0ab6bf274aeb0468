package sim

import (
	"context"
	"testing"
	"time"

	"ropus/internal/portfolio"
	"ropus/internal/qos"
	"ropus/internal/workload"
)

// TestSearchKaryGoldenCorpus is the corpus-level regression for the
// batched search rewrite: for every aggregate built from the same
// fleet shapes the golden experiments use, the K-ary Search must
// return the identical SearchOutcome — capacity, Result and Feasible,
// bit for bit — as a cold scalar bisection, across the θ
// targets, limits and tolerances the pipeline exercises; an infeasible
// outcome's decided Result is checked by Replay at its Capacity
// (sameOutcome). Each search
// runs twice so the second pass starts from pooled, already-grown
// (warm) batch scratch; the outcome must not depend on that.
func TestSearchKaryGoldenCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus regression is slow")
	}
	q := qos.AppQoS{ULow: 0.5, UHigh: 0.66, UDegr: 0.9, MPercent: 97, TDegr: 30 * time.Minute}
	ctx := context.Background()
	for _, seed := range []int64{3, 7, 2006} {
		set, err := workload.Fleet(workload.FleetConfig{
			Spiky: 2, Bursty: 2, Smooth: 2, Batch: 2,
			Weeks: 2, Interval: 5 * time.Minute, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		var pool []Workload
		for i := range set {
			part, err := portfolio.Translate(set[i], q, 0.60)
			if err != nil {
				t.Fatal(err)
			}
			pool = append(pool, Workload{
				AppID: set[i].AppID, CoS1: part.CoS1.Samples, CoS2: part.CoS2.Samples,
			})
		}
		// Aggregates over growing prefixes mimic the server groupings the
		// placement search evaluates (single apps through the full pool).
		for _, n := range []int{1, 2, 4, len(pool)} {
			agg, err := NewAggregate(pool[:n])
			if err != nil {
				t.Fatal(err)
			}
			for _, theta := range []float64{0.60, 0.95} {
				for _, tol := range []float64{0.25, 0.05} {
					cfg := Config{
						SlotsPerDay:   288,
						DeadlineSlots: 6,
						Commitment:    qos.PoolCommitment{Theta: theta, Deadline: 30 * time.Minute},
					}
					for _, limit := range []float64{agg.TotalPeak() * 0.5, agg.TotalPeak() * 1.5, 64} {
						want, err := agg.searchBisect(ctx, cfg, limit, tol)
						if err != nil {
							t.Fatal(err)
						}
						for round := 0; round < 2; round++ {
							got, err := agg.searchKary(ctx, cfg, limit, tol)
							if err != nil {
								t.Fatal(err)
							}
							if same, err := agg.sameOutcome(cfg, got, want); err != nil || !same {
								t.Fatalf("seed=%d apps=%d theta=%v tol=%v limit=%v round=%d (err %v):\n kary  =%+v\n bisect=%+v",
									seed, n, theta, tol, limit, round, err, got, want)
							}
						}
					}
				}
			}
		}
	}
}
