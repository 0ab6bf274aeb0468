package placement

import (
	"context"
	"runtime"
	"testing"
)

// TestConsolidateAllocBudget is the allocation gate for the
// consolidation path: a small search must stay within a fixed
// allocation budget. The ceilings sit ~2x above the measured counts
// (~1.0k with one island, ~1.7k with four), so GA trajectory noise
// passes but an accidental per-server or per-miss allocation in the
// scoring loop — candidates are scored without per-server detail, and
// only the returned plan is materialised — fails.
func TestConsolidateAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate is timing-adjacent")
	}
	prev := runtime.GOMAXPROCS(1) // keep goroutine scratch out of the count
	defer runtime.GOMAXPROCS(prev)
	sizes := []float64{6, 6, 4, 4, 3, 3, 2}
	initial := make(Assignment, len(sizes))
	for _, tc := range []struct {
		islands int
		budget  float64
	}{
		{0, 2_500},
		{4, 3_500},
	} {
		p := binPackProblem(sizes, 7, 10)
		// AllocsPerRun's warm-up run fills the store, so the measured runs
		// count the search's own bookkeeping and not the simulator's
		// pooled scratch, which the race detector makes sync.Pool drop at
		// random.
		p.Cache = NewSimCache(0)
		cfg := islandGA(11, tc.islands)
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := Consolidate(context.Background(), p, initial, cfg); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("islands=%d allocs=%v", tc.islands, allocs)
		if allocs > tc.budget {
			t.Errorf("islands=%d: Consolidate allocates %.0f objects per run, budget %.0f", tc.islands, allocs, tc.budget)
		}
	}
}
