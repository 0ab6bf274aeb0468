package sim

import (
	"math/rand"
	"sync"
	"testing"

	"ropus/internal/qos"
)

// TestConcurrentReplayersNoRace stresses the documented concurrency
// contract under the race detector: one Aggregate may be replayed from
// many goroutines at once as long as each goroutine uses its own
// BatchReplayer (the aggregate itself is read-only during a replay);
// Replay draws one from the shared pool per call, so the goroutines
// that call it exercise the pool under the race detector too. Every
// goroutine checks its results against a precomputed reference, so a
// data race that corrupts scratch instead of tripping the detector
// still fails the test.
func TestConcurrentReplayersNoRace(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	a := randBatchAgg(r, 2, 12)
	cfg := Config{
		SlotsPerDay:   12,
		DeadlineSlots: 3,
		Commitment:    qos.PoolCommitment{Theta: 0.7},
	}
	caps := make([]float64, 9)
	for j := range caps {
		caps[j] = a.cos1Peak + (a.totalPeak-a.cos1Peak)*float64(j)/float64(len(caps)-1)
	}
	want := make([]Result, len(caps))
	for j, c := range caps {
		scfg := cfg
		scfg.Capacity = c
		res, err := a.replayScalar(scfg)
		if err != nil {
			t.Fatal(err)
		}
		want[j] = res
	}

	const goroutines = 8
	const rounds = 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			br := NewBatchReplayer()
			out := make([]Result, len(caps))
			for round := 0; round < rounds; round++ {
				if g%2 == 0 {
					// One-lane replays on pooled scratch, one capacity
					// per pass.
					for j, c := range caps {
						scfg := cfg
						scfg.Capacity = c
						res, err := a.Replay(scfg)
						if err != nil {
							errs <- err
							return
						}
						out[j] = res
					}
				} else if err := a.ReplayBatch(br, cfg, caps, out); err != nil {
					errs <- err
					return
				}
				for j := range want {
					if out[j] != want[j] {
						t.Errorf("goroutine %d round %d lane %d diverged", g, round, j)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
