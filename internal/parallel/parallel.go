// Package parallel provides the bounded worker pool shared by the
// pipeline's fan-out points: the failure-scenario sweeps, the
// experiments matrices, and any future embarrassingly-parallel stage.
//
// The pool preserves the sequential code's degradation contract:
// cancellation stops dispatch at a job boundary, every job already
// dispatched runs to completion, and the dispatched jobs always form a
// contiguous prefix of the index range, so callers can keep their
// "completed prefix + Truncated flag" reporting semantics unchanged.
//
// The per-job boundary is also where the self-healing machinery hangs:
// callers wrap each job in a resilience retry and journal its completed
// result to a checkpoint (see internal/resilience and
// internal/checkpoint). Because jobs are index-addressed and results
// are written by index, a resumed sweep replays journaled jobs and
// recomputes the rest at any worker count with identical output.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(i) for i in [0, n) on at most workers goroutines and
// returns the number of jobs dispatched. Jobs are dispatched in index
// order; when ctx is cancelled, dispatch stops at the next job boundary
// but in-flight jobs complete before ForEach returns, so indexes
// [0, dispatched) have all been processed and [dispatched, n) have not
// been started. workers <= 0 selects GOMAXPROCS.
//
// workers == 1 runs fn inline on the calling goroutine with a plain
// ctx.Err() check before each job — exactly the loop the sequential
// callers used — so a Workers=1 configuration is byte-identical in
// behaviour to the pre-pool code, including its cancellation edge.
func ForEach(ctx context.Context, workers, n int, fn func(i int)) int {
	if n <= 0 {
		return 0
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return i
			}
			fn(i)
		}
		return n
	}

	// A panic inside fn must not die on a worker goroutine (it would
	// crash the process past every caller-side recover, unlike the
	// sequential loop it replaces): the first panic value is captured,
	// the remaining jobs are drained unrun, and the panic is re-raised
	// on the calling goroutine once the pool settles.
	var (
		panicked atomic.Bool
		panicMu  sync.Mutex
		panicVal any
	)
	runJob := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				panicMu.Lock()
				if !panicked.Load() {
					panicVal = r
					panicked.Store(true)
				}
				panicMu.Unlock()
			}
		}()
		fn(i)
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if panicked.Load() {
					continue
				}
				runJob(i)
			}
		}()
	}
	dispatched := 0
dispatch:
	for i := 0; i < n; i++ {
		// Checked here as in the serial loop: the select below picks at
		// random when a worker is ready and ctx is already done, and a
		// dead context must dispatch nothing.
		if panicked.Load() || ctx.Err() != nil {
			break
		}
		// The unbuffered channel means a job is "dispatched" only once a
		// worker has accepted it; cancellation therefore never strands an
		// index between dispatched-but-unprocessed states.
		select {
		case jobs <- i:
			dispatched++
		case <-ctx.Done():
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	if panicked.Load() {
		panic(panicVal)
	}
	return dispatched
}
