package placement

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ropus/internal/faultinject"
	"ropus/internal/robust"
)

// cancelProblem is a packing with room to consolidate, so the GA has
// real work left when a cancel lands.
func cancelProblem() *Problem {
	return binPackProblem([]float64{3, 3, 3, 2, 2, 2, 1, 1}, 8, 10)
}

func TestCancelConsolidateBestSoFar(t *testing.T) {
	// A context done before the first generation — cancelled outright,
	// or past a deadline — stops the search at the first boundary; the
	// initial population (evaluated detached from the cancel) still
	// yields a valid best-so-far plan.
	cancelled := func() (context.Context, context.CancelFunc) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		return ctx, cancel
	}
	expired := func() (context.Context, context.CancelFunc) {
		return context.WithTimeout(context.Background(), time.Nanosecond)
	}
	run := func(newCtx func() (context.Context, context.CancelFunc)) *Plan {
		ctx, cancel := newCtx()
		defer cancel()
		p := cancelProblem()
		initial, err := OneAppPerServer(p)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := Consolidate(ctx, p, initial, DefaultGAConfig(7))
		if err != nil {
			t.Fatalf("cancelled Consolidate should degrade, got %v", err)
		}
		return plan
	}
	plan := run(cancelled)
	if !plan.Truncated {
		t.Error("cancelled search should flag the plan Truncated")
	}
	if !plan.Feasible {
		t.Error("best-so-far plan should be feasible")
	}
	if err := plan.Assignment.Validate(cancelProblem()); err != nil {
		t.Errorf("best-so-far assignment invalid: %v", err)
	}
	// Same seed, same stopping boundary => same plan, whichever way the
	// context ended: degradation must not introduce nondeterminism.
	for _, again := range []*Plan{run(cancelled), run(expired)} {
		if !again.Truncated || !again.Feasible {
			t.Errorf("want truncated feasible plan, got truncated=%v feasible=%v",
				again.Truncated, again.Feasible)
		}
		for i, s := range plan.Assignment {
			if again.Assignment[i] != s {
				t.Fatalf("same seed produced different best-so-far assignments:\n%v\n%v",
					plan.Assignment, again.Assignment)
			}
		}
	}
}

func TestCancelConsolidateNoFeasibleErrs(t *testing.T) {
	// When nothing fits, a cancelled search has no best-so-far to return
	// and must surface the cancellation as an error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := binPackProblem([]float64{9, 9, 9}, 3, 10)
	p.Servers = p.Servers[:1] // 27 CPUs of demand on one 10-CPU server
	plan, err := Consolidate(ctx, p, Assignment{0, 0, 0}, DefaultGAConfig(7))
	if err == nil {
		t.Fatalf("want error, got plan %+v", plan)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error should wrap context.Canceled, got %v", err)
	}
}

func TestCancelGreedyExactAndCorrelation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := cancelProblem()
	for name, fn := range map[string]func() error{
		"FirstFitDecreasing": func() error { _, err := FirstFitDecreasing(ctx, p); return err },
		"BestFitDecreasing":  func() error { _, err := BestFitDecreasing(ctx, p); return err },
		"LeastCorrelatedFit": func() error { _, err := LeastCorrelatedFit(ctx, p); return err },
		"Exact":              func() error { _, err := Exact(ctx, p, 100000); return err },
	} {
		if err := fn(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: error should wrap context.Canceled, got %v", name, err)
		}
	}
}

// TestChaosEvaluatorConcurrent drives many goroutines through the
// evaluator's store and its singleflight tables (run under -race by the
// CI chaos job).
func TestChaosEvaluatorConcurrent(t *testing.T) {
	p := cancelProblem()
	ev := newEvaluator(p)
	assignments := []Assignment{
		{0, 0, 1, 1, 2, 2, 3, 3},
		{0, 0, 1, 1, 2, 2, 3, 3}, // duplicate: exercises dedup
		{0, 1, 0, 1, 0, 1, 0, 1},
		{3, 3, 3, 2, 2, 2, 1, 1},
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				a := assignments[(g+i)%len(assignments)]
				if _, err := ev.evaluate(context.Background(), a); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := range ev.store.shards {
		sh := &ev.store.shards[i]
		sh.mu.Lock()
		if len(sh.inflight) != 0 {
			t.Errorf("shard %d: %d in-flight entries leaked", i, len(sh.inflight))
		}
		sh.mu.Unlock()
	}
}

func TestChaosInjectedSolverError(t *testing.T) {
	p := cancelProblem()
	p.Inject = faultinject.MustScript(1,
		faultinject.Rule{Point: "sim.required_capacity", Key: p.Servers[0].ID})
	_, err := Evaluate(p, Assignment{0, 0, 1, 1, 2, 2, 3, 3})
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Errorf("error should wrap faultinject.ErrInjected, got %v", err)
	}
	// Other servers keep working: an assignment avoiding srv 0 is fine.
	if _, err := Evaluate(p, Assignment{1, 1, 2, 2, 3, 3, 4, 4}); err != nil {
		t.Errorf("uninjected servers should evaluate, got %v", err)
	}
}

// TestChaosPanicReleasesWaiters checks that a panic while computing a
// group still releases the goroutines waiting for that group: the
// worker pool re-raises a panic only once every running job returns, so
// a waiter left blocked would hang the search instead.
func TestChaosPanicReleasesWaiters(t *testing.T) {
	prev := runtime.GOMAXPROCS(2) // the two assignments are scored concurrently
	defer runtime.GOMAXPROCS(prev)
	p := cancelProblem()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	ev := newEvaluator(p)
	var calls atomic.Int64
	p.Inject = faultinject.Func(func(point, key string) faultinject.Outcome {
		if calls.Add(1) == 1 {
			for !hasWaiter(ev.store) {
				runtime.Gosched()
			}
			panic("injected panic")
		}
		return faultinject.Outcome{}
	})
	defer func() {
		if r := recover(); r != "injected panic" {
			t.Errorf("recovered %v, want the injected panic", r)
		}
	}()
	// Both assignments are one group on server 0: the first scorer
	// computes it, the second waits for it.
	a := make(Assignment, len(p.Apps))
	_ = newScoreJob(ev, 2).scoreAll(context.Background(), []scored{{assignment: a}, {assignment: a.Clone()}})
	t.Error("scoreAll returned instead of re-raising the panic")
}

// TestChaosConsolidatePanicRecovered checks that a panic inside a search
// comes back from Consolidate as an error wrapping robust.ErrPanic: on
// the first evaluation of seeding, and after seeding, inside offspring
// evaluations running on worker goroutines.
func TestChaosConsolidatePanicRecovered(t *testing.T) {
	prev := runtime.GOMAXPROCS(2) // offspring are scored on two workers
	defer runtime.GOMAXPROCS(prev)
	for _, tc := range []struct {
		name string
		late bool
	}{
		{"seeding", false},
		{"offspring", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultGAConfig(7)
			var calls, after atomic.Int64
			run := func(ctx context.Context) (*Plan, error) {
				p := cancelProblem()
				p.Inject = faultinject.Func(func(point, key string) faultinject.Outcome {
					if calls.Add(1) > after.Load() {
						panic("injected panic")
					}
					return faultinject.Outcome{}
				})
				initial, err := OneAppPerServer(p)
				if err != nil {
					t.Fatal(err)
				}
				return Consolidate(ctx, p, initial, cfg)
			}
			if tc.late {
				// Without warm starts seeding is the initial assignment and
				// its mutants. A search on a dead context runs seeding and
				// nothing else, which counts its injector calls.
				cfg.SeedGreedy = false
				after.Store(math.MaxInt64)
				dead, cancel := context.WithCancel(context.Background())
				cancel()
				if _, err := run(dead); err != nil {
					t.Fatal(err)
				}
				after.Store(calls.Load())
				calls.Store(0)
			}
			plan, err := run(context.Background())
			if err == nil {
				t.Fatalf("want recovered panic error, got plan %+v", plan)
			}
			if !errors.Is(err, robust.ErrPanic) {
				t.Errorf("error should wrap robust.ErrPanic, got %v", err)
			}
			if !strings.Contains(err.Error(), "injected panic") {
				t.Errorf("error should carry the panic value, got %v", err)
			}
		})
	}
}
