package placement

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"ropus/internal/faultinject"
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

// TestBestSurvivesRowReuse checks that the plan a search returns is the
// candidate it scored. The best's assignment is copied out of the arena
// row it was bred in, and that row is bred over two generations later;
// the searches below run at least 40 generations past their last
// improvement. Evaluating the returned assignment afresh must reproduce
// the plan's objective bit for bit, for a finished search and for one
// cancelled in the middle of a generation.
func TestBestSurvivesRowReuse(t *testing.T) {
	same := func(t *testing.T, p *Problem, plan *Plan) {
		t.Helper()
		got, err := Evaluate(p, plan.Assignment)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got.Score, plan.Score) || got.Feasible != plan.Feasible ||
			got.ServersUsed != plan.ServersUsed || !sameBits(got.RequiredTotal, plan.RequiredTotal) {
			t.Fatalf("plan %v claims score %v feasible %v servers %d required %v; it evaluates to %v %v %d %v",
				plan.Assignment, plan.Score, plan.Feasible, plan.ServersUsed, plan.RequiredTotal,
				got.Score, got.Feasible, got.ServersUsed, got.RequiredTotal)
		}
	}
	for seed := int64(1); seed <= 20; seed++ {
		cfg := DefaultGAConfig(seed)
		cfg.SeedGreedy = false // the best is bred, in an arena row
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			sizes := make([]float64, 10)
			for i := range sizes {
				sizes[i] = float64(1 + r.Intn(5))
			}
			p := binPackProblem(sizes, len(sizes), 10)
			initial, err := OneAppPerServer(p)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := Consolidate(context.Background(), p, initial, cfg)
			if err != nil {
				t.Fatal(err)
			}
			same(t, p, plan)

			// Cancel on a simulation a few past those of seeding, which a
			// search on a dead context runs and nothing else.
			var calls, cancelAt atomic.Int64
			cancelAt.Store(math.MaxInt64)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			p.Inject = faultinject.Func(func(point, key string) faultinject.Outcome {
				if calls.Add(1) == cancelAt.Load() {
					cancel()
				}
				return faultinject.Outcome{}
			})
			dead, kill := context.WithCancel(context.Background())
			kill()
			if _, err := Consolidate(dead, p, initial, cfg); err != nil {
				t.Fatal(err)
			}
			cancelAt.Store(calls.Load() + 3 + seed%5)
			calls.Store(0)
			plan, err = Consolidate(ctx, p, initial, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !plan.Truncated {
				t.Fatal("a search cancelled mid-generation returned an untruncated plan")
			}
			same(t, p, plan)
		})
	}
}
