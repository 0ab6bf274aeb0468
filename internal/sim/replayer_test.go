package sim

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"ropus/internal/qos"
)

// replayFixture builds an aggregate with a daily burst pattern plus a
// config whose deadline forces backlog activity.
func replayFixture(t *testing.T) (*Aggregate, Config) {
	t.Helper()
	slots := 7 * 8 * 2 // two weeks, 8 slots/day
	c1 := make([]float64, slots)
	c2 := make([]float64, slots)
	for i := range c2 {
		c1[i] = 1
		c2[i] = float64(i % 8)
	}
	agg, err := NewAggregate([]Workload{{AppID: "a", CoS1: c1, CoS2: c2}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Capacity:      4,
		Commitment:    qos.PoolCommitment{Theta: 0.7, Deadline: time.Hour},
		SlotsPerDay:   8,
		DeadlineSlots: 2,
	}
	return agg, cfg
}

// TestReplayMatchesScalar pins Replay, one lane of the pooled kernel,
// to the scalar reference loop bit for bit, repeated so the later
// replays run on scratch an earlier one left in the pool.
func TestReplayMatchesScalar(t *testing.T) {
	agg, cfg := replayFixture(t)
	for _, capacity := range []float64{0, 1, 2.5, 4, 5.5, 8} {
		c := cfg
		c.Capacity = capacity
		want, err := agg.replayScalar(c)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ { // reuse must not leak state across replays
			got, err := agg.Replay(c)
			if err != nil {
				t.Fatal(err)
			}
			if got != want || math.Float64bits(got.Theta) != math.Float64bits(want.Theta) {
				t.Fatalf("capacity %v replay %d diverged from the scalar loop:\ngot  %+v\nwant %+v", capacity, i, got, want)
			}
		}
	}
}

// TestReplayZeroAllocsSteadyState: a warm one-lane pass allocates
// nothing, on a held BatchReplayer and through Replay's pool. The pool
// half is skipped where sync.Pool discards Puts at random (the race
// detector does), since a dropped replayer is refilled from scratch.
func TestReplayZeroAllocsSteadyState(t *testing.T) {
	agg, cfg := replayFixture(t)
	br := NewBatchReplayer()
	steady := func(name string, replay func() (Result, error)) {
		if _, err := replay(); err != nil { // warm the scratch
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := replay(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("warm %s allocates %.1f objects per run, want 0", name, allocs)
		}
	}
	steady("one-lane pass", func() (Result, error) { return agg.replayOne(br, cfg, cfg.Capacity, false) })
	if poolDropsPuts() {
		t.Log("sync.Pool drops Puts here; skipping the pooled half")
		return
	}
	steady("Replay", func() (Result, error) { return agg.Replay(cfg) })
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

func TestSearchMatchesRequiredCapacity(t *testing.T) {
	agg, cfg := replayFixture(t)
	ctx := context.Background()
	for _, limit := range []float64{6, 8, 16} {
		capacity, res, ok, err := agg.RequiredCapacity(ctx, cfg, limit, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		out, err := agg.Search(ctx, cfg, limit, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if out.Capacity != capacity || out.Result != res || out.Feasible != ok {
			t.Errorf("limit %v: Search %+v diverges from RequiredCapacity (%v, %+v, %v)",
				limit, out, capacity, res, ok)
		}
	}
}
