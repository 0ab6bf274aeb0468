package placement

import (
	"context"
	"runtime"
	"testing"
)

// TestConsolidateAllocBudget is the allocation gate for the
// consolidation path: a small search must stay within a fixed
// allocation budget. The ceiling sits ~2x above the measured count
// (~1.0k), so GA trajectory noise passes but an accidental per-server
// or per-miss allocation in the scoring loop — candidates are scored
// without per-server detail, and only the returned plan is
// materialised — fails.
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
	const budget = 2_500
	if allocs > budget {
		t.Errorf("Consolidate allocates %.0f objects per run, budget %d", allocs, budget)
	}
}
