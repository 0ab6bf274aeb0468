package placement

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"ropus/internal/telemetry"
)

// islandGA is a small, fast configuration that is valid for every
// island count the suite exercises (32/8 = 4 members per island, which
// still clears Elite 2 and TournamentK 3).
func islandGA(seed int64, islands int) GAConfig {
	cfg := DefaultGAConfig(seed)
	cfg.MaxGenerations = 30
	cfg.Stagnation = 12
	cfg.Islands = islands
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

// TestIslandsDeterministicAcrossWorkers pins the island-model contract:
// for every island count, the returned plan is byte-identical per
// (Seed, Islands) no matter how many worker goroutines evaluate
// offspring. GOMAXPROCS is the worker count every internal split
// derives from, so varying it varies both the island dispatch width and
// the per-island evaluation parallelism.
func TestIslandsDeterministicAcrossWorkers(t *testing.T) {
	sizes := []float64{6, 6, 4, 4, 3, 3, 2}
	initial := make(Assignment, len(sizes))
	for i := range initial {
		initial[i] = i
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, islands := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("islands=%d", islands), func(t *testing.T) {
			var want string
			for _, workers := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(workers)
				p := binPackProblem(sizes, 7, 10)
				plan, err := Consolidate(context.Background(), p, initial, islandGA(11, islands))
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

// TestIslandsDeterministicRepeat re-runs the same (seed, islands)
// search on a fresh problem and expects the identical plan, including
// with a migration every generation (MigrationInterval 1, the most
// barrier-heavy schedule).
func TestIslandsDeterministicRepeat(t *testing.T) {
	sizes := []float64{6, 6, 4, 4, 3, 3, 2}
	initial := make(Assignment, len(sizes))
	for _, interval := range []int{0, 1, 3} {
		cfg := islandGA(23, 4)
		cfg.MigrationInterval = interval
		var want string
		for run := 0; run < 2; run++ {
			p := binPackProblem(sizes, 7, 10)
			plan, err := Consolidate(context.Background(), p, initial, cfg)
			if err != nil {
				t.Fatalf("interval=%d run=%d: %v", interval, run, err)
			}
			got := planFingerprint(plan)
			if run == 0 {
				want = got
			} else if got != want {
				t.Errorf("interval=%d not repeatable:\n got %s\nwant %s", interval, got, want)
			}
		}
	}
}

// TestIslandsImproveOnGreedy checks the search still does its job under
// the island model: the greedy warm start (3 servers for this perfect
// packing) is never lost, because island 0 is seeded with it and
// migration only spreads good plans.
func TestIslandsImproveOnGreedy(t *testing.T) {
	sizes := []float64{6, 6, 4, 4, 3, 3, 2}
	initial := make(Assignment, len(sizes))
	p := binPackProblem(sizes, 7, 10)
	plan, err := Consolidate(context.Background(), p, initial, islandGA(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible {
		t.Fatal("island search returned infeasible plan")
	}
	if plan.ServersUsed > 3 {
		t.Errorf("ServersUsed = %d, want <= 3 (the greedy warm start)", plan.ServersUsed)
	}
	if err := plan.Assignment.Validate(p); err != nil {
		t.Errorf("returned assignment invalid: %v", err)
	}
}

// TestIslandsTelemetry checks the GA series: every island count reports
// the generation gauges and histogram, with the best-plan gauges
// matching the returned plan for a ring of one; only a ring of several
// reports the island count and its migrations.
func TestIslandsTelemetry(t *testing.T) {
	sizes := []float64{6, 6, 4, 4, 3, 3, 2}
	initial := make(Assignment, len(sizes))
	for _, islands := range []int{0, 4} {
		p := binPackProblem(sizes, 7, 10)
		reg := telemetry.NewRegistry()
		p.Hooks = telemetry.New(reg, nil)
		cfg := islandGA(5, islands)
		cfg.MigrationInterval = 2
		plan, err := Consolidate(context.Background(), p, initial, cfg)
		if err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		gens := snap.Counters["ga_generations_total"]
		if gens == 0 {
			t.Errorf("islands=%d: no generations recorded", islands)
		}
		if got := snap.Histograms["ga_generation_seconds"].Count; got != gens {
			t.Errorf("islands=%d: %d generation timings for %d generations", islands, got, gens)
		}
		for _, g := range []string{"ga_best_score", "ga_mean_score", "ga_best_feasible_servers", "ga_stagnation_generations"} {
			if _, ok := snap.Gauges[g]; !ok {
				t.Errorf("islands=%d: gauge %s not reported", islands, g)
			}
		}
		_, hasIslands := snap.Gauges["ga_islands"]
		_, hasMigrations := snap.Counters["ga_migrations_total"]
		_, hasRevivals := snap.Counters["ga_island_revivals_total"]
		if islands == 0 {
			if hasIslands || hasMigrations || hasRevivals {
				t.Error("a ring of one reports island series")
			}
			if snap.Gauges["ga_best_score"] != plan.Score || snap.Gauges["ga_best_feasible_servers"] != float64(plan.ServersUsed) {
				t.Errorf("best gauges %v/%v, plan %v/%d", snap.Gauges["ga_best_score"],
					snap.Gauges["ga_best_feasible_servers"], plan.Score, plan.ServersUsed)
			}
			continue
		}
		if got := snap.Gauges["ga_islands"]; got != 4 {
			t.Errorf("ga_islands = %v, want 4", got)
		}
		if !hasRevivals || snap.Counters["ga_migrations_total"] == 0 {
			t.Error("no ring migrations recorded")
		}
	}
}

// TestIslandsValidate covers the island-specific configuration checks.
func TestIslandsValidate(t *testing.T) {
	base := DefaultGAConfig(1)
	cases := []struct {
		name   string
		mutate func(*GAConfig)
		ok     bool
	}{
		{"zero islands", func(c *GAConfig) { c.Islands = 0 }, true},
		{"one island", func(c *GAConfig) { c.Islands = 1 }, true},
		{"negative islands", func(c *GAConfig) { c.Islands = -1 }, false},
		{"negative interval", func(c *GAConfig) { c.Islands = 2; c.MigrationInterval = -1 }, false},
		{"population splits below 2", func(c *GAConfig) { c.PopulationSize = 8; c.Islands = 8; c.Elite = 0 }, false},
		{"elite eats an island", func(c *GAConfig) { c.PopulationSize = 8; c.Islands = 4; c.Elite = 2 }, false},
		{"tournament exceeds island", func(c *GAConfig) { c.PopulationSize = 8; c.Islands = 4; c.Elite = 1; c.TournamentK = 3 }, false},
		{"eight islands of four", func(c *GAConfig) { c.PopulationSize = 32; c.Islands = 8 }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			err := cfg.Validate()
			if tc.ok && err != nil {
				t.Errorf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}
