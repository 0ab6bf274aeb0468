package placement

import (
	"context"
	"runtime"
	"testing"

	"ropus/internal/telemetry"
)

// TestConsolidateAllocBudget is the allocation gate for the
// consolidation path: a small search must stay within a fixed
// allocation budget. The ceiling sits ~2x above the measured count
// (~130), so GA trajectory noise passes but an accidental per-server
// or per-miss allocation in the scoring loop — candidates are scored
// without per-server detail, and only the returned plan is
// materialised — or a per-offspring allocation in breeding fails.
func TestConsolidateAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate is timing-adjacent")
	}
	prev := runtime.GOMAXPROCS(1) // keep goroutine scratch out of the count
	defer runtime.GOMAXPROCS(prev)
	sizes := []float64{6, 6, 4, 4, 3, 3, 2}
	initial := make(Assignment, len(sizes))
	p := binPackProblem(sizes, 7, 10)
	// AllocsPerRun's warm-up run fills the store, so the measured runs
	// count the search's own bookkeeping and not the simulator's pooled
	// scratch, which the race detector makes sync.Pool drop at random.
	p.Cache = NewSimCache(0)
	cfg := smallGA(11)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Consolidate(context.Background(), p, initial, cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs=%v", allocs)
	const budget = 300
	if allocs > budget {
		t.Errorf("Consolidate allocates %.0f objects per run, budget %d", allocs, budget)
	}
}

// TestGenerationAllocsZero holds a GA generation to zero allocations:
// on a warm store at GOMAXPROCS 1, a search that runs 80 generations
// allocates exactly as many objects as one that runs 20. Breeding,
// scoring and selection reuse the population's two arenas, its
// candidate records and its scoring closure.
func TestGenerationAllocsZero(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	sizes := []float64{6, 6, 4, 4, 3, 3, 2}
	initial := make(Assignment, len(sizes))
	p := binPackProblem(sizes, 7, 10)
	p.Cache = NewSimCache(0)
	search := func(gens int) GAConfig {
		// Stagnation equal to the bound runs exactly gens generations.
		cfg := smallGA(11)
		cfg.MaxGenerations, cfg.Stagnation = gens, gens
		return cfg
	}
	allocs := func(gens int) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := Consolidate(context.Background(), p, initial, search(gens)); err != nil {
				t.Fatal(err)
			}
		})
	}
	// The long search goes first: its warm-up run fills the store for
	// both, so neither count includes a simulation.
	long, short := allocs(80), allocs(20)
	t.Logf("allocs: 80 generations %v, 20 generations %v", long, short)
	if long != short {
		t.Errorf("80 generations allocate %v objects, 20 allocate %v: a generation allocates", long, short)
	}
	reg := telemetry.NewRegistry()
	traced := *p
	traced.Hooks = telemetry.New(reg, nil)
	if _, err := Consolidate(context.Background(), &traced, initial, search(80)); err != nil {
		t.Fatal(err)
	}
	if gens := reg.Snapshot().Counters["ga_generations_total"]; gens != 80 {
		t.Fatalf("the long search ran %d generations, want 80", gens)
	}
}
