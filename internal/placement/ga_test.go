package placement

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"ropus/internal/telemetry"
)

// smallGA is a small, fast configuration for the GA suite.
func smallGA(seed int64) GAConfig {
	cfg := DefaultGAConfig(seed)
	cfg.MaxGenerations = 30
	cfg.Stagnation = 12
	return cfg
}

// planFingerprint folds everything observable about a plan into a
// comparable string, so "byte-identical" failures print both sides.
func planFingerprint(p *Plan) string {
	if p == nil {
		return "<nil>"
	}
	return fmt.Sprintf("assign=%v score=%b servers=%d required=%b feasible=%v truncated=%v",
		p.Assignment, p.Score, p.ServersUsed, p.RequiredTotal, p.Feasible, p.Truncated)
}

// TestConsolidateDeterministicAcrossWorkers pins the determinism
// contract on every golden search: the returned plan is byte-identical
// per seed no matter how many worker goroutines score offspring.
// GOMAXPROCS is the worker count the scoring fan-out derives from.
func TestConsolidateDeterministicAcrossWorkers(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, tc := range gaGoldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			var want string
			for _, workers := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(workers)
				p := tc.problem()
				plan, err := Consolidate(context.Background(), p, tc.initial(p), tc.cfg)
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				got := planFingerprint(plan)
				if want == "" {
					want = got
					continue
				}
				if got != want {
					t.Errorf("workers=%d diverged:\n got %s\nwant %s", workers, got, want)
				}
			}
		})
	}
}

// TestConsolidateDeterministicRepeat re-runs the same seeded search on
// a fresh problem and expects the identical plan.
func TestConsolidateDeterministicRepeat(t *testing.T) {
	sizes := []float64{6, 6, 4, 4, 3, 3, 2}
	initial := make(Assignment, len(sizes))
	var want string
	for run := 0; run < 2; run++ {
		p := binPackProblem(sizes, 7, 10)
		plan, err := Consolidate(context.Background(), p, initial, smallGA(23))
		if err != nil {
			t.Fatalf("run=%d: %v", run, err)
		}
		got := planFingerprint(plan)
		if run == 0 {
			want = got
		} else if got != want {
			t.Errorf("not repeatable:\n got %s\nwant %s", got, want)
		}
	}
}

// TestConsolidateImprovesOnGreedy checks the greedy warm start (3
// servers for this perfect packing) is never lost: the population is
// seeded with it and the elite carry the best over.
func TestConsolidateImprovesOnGreedy(t *testing.T) {
	sizes := []float64{6, 6, 4, 4, 3, 3, 2}
	initial := make(Assignment, len(sizes))
	p := binPackProblem(sizes, 7, 10)
	plan, err := Consolidate(context.Background(), p, initial, smallGA(3))
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible {
		t.Fatal("search returned infeasible plan")
	}
	if plan.ServersUsed > 3 {
		t.Errorf("ServersUsed = %d, want <= 3 (the greedy warm start)", plan.ServersUsed)
	}
	if err := plan.Assignment.Validate(p); err != nil {
		t.Errorf("returned assignment invalid: %v", err)
	}
}

// TestGATelemetry checks the GA series: the generation gauges and
// histogram are reported, and the best-plan gauges match the returned
// plan.
func TestGATelemetry(t *testing.T) {
	sizes := []float64{6, 6, 4, 4, 3, 3, 2}
	initial := make(Assignment, len(sizes))
	p := binPackProblem(sizes, 7, 10)
	reg := telemetry.NewRegistry()
	p.Hooks = telemetry.New(reg, nil)
	plan, err := Consolidate(context.Background(), p, initial, smallGA(5))
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	gens := snap.Counters["ga_generations_total"]
	if gens == 0 {
		t.Error("no generations recorded")
	}
	if got := snap.Histograms["ga_generation_seconds"].Count; got != gens {
		t.Errorf("%d generation timings for %d generations", got, gens)
	}
	for _, g := range []string{"ga_best_score", "ga_mean_score", "ga_best_feasible_servers", "ga_stagnation_generations"} {
		if _, ok := snap.Gauges[g]; !ok {
			t.Errorf("gauge %s not reported", g)
		}
	}
	if snap.Gauges["ga_best_score"] != plan.Score || snap.Gauges["ga_best_feasible_servers"] != float64(plan.ServersUsed) {
		t.Errorf("best gauges %v/%v, plan %v/%d", snap.Gauges["ga_best_score"],
			snap.Gauges["ga_best_feasible_servers"], plan.Score, plan.ServersUsed)
	}
}
