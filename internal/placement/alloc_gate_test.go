package placement

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"ropus/internal/qos"
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

// TestAggregateBuffersPooled holds a fresh evaluator that computes one
// group to less than one aggregate's slot buffers: those come from
// aggPool, so 20 evaluators in turn, each summing a 3-app group of
// 8 064-slot traces through computeServer, allocate them once between
// them, not once each. It is skipped where sync.Pool drops Puts at
// random (the race detector does), since a dropped aggregate is
// allocated anew.
func TestAggregateBuffersPooled(t *testing.T) {
	if poolDropsPuts() {
		t.Skip("sync.Pool drops Puts here")
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	const slots = 8064
	p := &Problem{
		Apps:          []App{flatApp("a", 0.5, 1, slots), flatApp("b", 1, 0.5, slots), flatApp("c", 0.25, 2, slots)},
		Servers:       servers(1, 8),
		Commitment:    qos.PoolCommitment{Theta: 0.9, Deadline: time.Hour},
		SlotsPerDay:   288,
		DeadlineSlots: 12,
		Tolerance:     0.01,
		Cache:         NewSimCache(0),
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	compute := func() {
		e := newEvaluator(p)
		sc := e.acquire()
		defer e.release(sc)
		ev, err := e.computeServer(context.Background(), sc, 0, []int{0, 1, 2})
		if err != nil {
			t.Fatal(err)
		}
		if !ev.feasible {
			t.Fatalf("group record = %+v, want feasible", ev)
		}
	}
	// The first computation fills the pools; the second grows the pooled
	// replayer for the deeper tree its depth hint then asks for.
	compute()
	compute()
	const evaluators = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < evaluators; i++ {
		compute()
	}
	runtime.ReadMemStats(&after)
	perEvaluator := (after.TotalAlloc - before.TotalAlloc) / evaluators
	t.Logf("%d bytes per evaluator", perEvaluator)
	if buffers := uint64(2 * 8 * slots); perEvaluator >= buffers {
		t.Errorf("a fresh evaluator allocates %d bytes to compute one group, want under one aggregate's buffers (%d)", perEvaluator, buffers)
	}
}

// poolDropsPuts reports whether sync.Pool discards Puts at random: under
// the race detector a Put is dropped one time in four, so 64 Put/Get
// round trips all coming back is a one-in-10^8 event there, and the norm
// everywhere else.
func poolDropsPuts() bool {
	var p sync.Pool
	for i := 0; i < 64; i++ {
		x := new(int)
		p.Put(x)
		if p.Get() != x {
			return true
		}
	}
	return false
}
