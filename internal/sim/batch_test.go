package sim

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"ropus/internal/faultinject"
	"ropus/internal/qos"
	"ropus/internal/telemetry"
)

// batchAgg builds an Aggregate directly from per-slot traces.
func batchAgg(cos1, cos2 []float64) *Aggregate {
	a := &Aggregate{cos1: cos1, cos2: cos2}
	for i := range cos1 {
		if cos1[i] > a.cos1Peak {
			a.cos1Peak = cos1[i]
		}
		if t := cos1[i] + cos2[i]; t > a.totalPeak {
			a.totalPeak = t
		}
	}
	return a
}

// randBatchAgg draws a random trace with enough spikes to force CoS2
// backlogs at low capacities.
func randBatchAgg(r *rand.Rand, weeks, slotsPerDay int) *Aggregate {
	n := weeks * 7 * slotsPerDay
	cos1 := make([]float64, n)
	cos2 := make([]float64, n)
	for i := 0; i < n; i++ {
		cos1[i] = r.Float64() * 3
		cos2[i] = r.Float64() * 6
	}
	return batchAgg(cos1, cos2)
}

// TestBatchReplayParity pins the core contract: every lane of a batched
// replay is bit-identical to the scalar reference loop at that
// capacity, for random traces spanning partial weeks, DeadlineSlots = 0
// (immediate misses) and backlog-carrying regimes, at lane counts from
// 1 to 17.
func TestBatchReplayParity(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	br := NewBatchReplayer()
	for trial := 0; trial < 300; trial++ {
		weeks := 1 + r.Intn(3)
		slotsPerDay := 4 + r.Intn(8)
		a := randBatchAgg(r, weeks, slotsPerDay)
		cfg := Config{
			SlotsPerDay:   slotsPerDay,
			DeadlineSlots: r.Intn(4), // 0 exercises the immediate-miss path
			Commitment:    qos.PoolCommitment{Theta: 0.5 + r.Float64()*0.4},
		}
		k := 1 + r.Intn(17)
		caps := make([]float64, k)
		for j := range caps {
			caps[j] = r.Float64() * a.totalPeak * 1.2
		}
		out := make([]Result, k)
		if err := a.ReplayBatch(br, cfg, caps, out); err != nil {
			t.Fatalf("trial %d: batch: %v", trial, err)
		}
		for j := range caps {
			c := cfg
			c.Capacity = caps[j]
			want, err := a.replayScalar(c)
			if err != nil {
				t.Fatalf("trial %d: scalar: %v", trial, err)
			}
			if want != out[j] {
				t.Fatalf("trial %d lane %d cap=%v deadline=%d:\n scalar=%+v\n batch =%+v",
					trial, j, caps[j], cfg.DeadlineSlots, want, out[j])
			}
		}
	}
}

// TestBatchReplayParityEdges pins hand-picked edge traces: all-zero
// demand, capacity exactly at the peak, capacity zero, duplicate lane
// capacities, and a deficit that expires exactly at its deadline slot.
func TestBatchReplayParityEdges(t *testing.T) {
	cases := []struct {
		name       string
		cos1, cos2 []float64
		deadline   int
		caps       []float64
	}{
		{
			name: "all zero",
			cos1: make([]float64, 28), cos2: make([]float64, 28),
			deadline: 2, caps: []float64{0, 1, 2},
		},
		{
			name:     "exact peak and zero capacity",
			cos1:     []float64{1, 2, 1, 0, 1, 2, 1, 0, 1, 2, 1, 0, 1, 2, 1, 0, 1, 2, 1, 0, 1, 2, 1, 0, 1, 2, 1, 0},
			cos2:     []float64{3, 0, 3, 0, 3, 0, 3, 0, 3, 0, 3, 0, 3, 0, 3, 0, 3, 0, 3, 0, 3, 0, 3, 0, 3, 0, 3, 0},
			deadline: 1, caps: []float64{0, 2, 5, 5, 3.5},
		},
		{
			name:     "deadline-boundary expiry",
			cos1:     []float64{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
			cos2:     []float64{5, 5, 5, 0, 0, 0, 0, 0, 5, 5, 5, 0, 0, 0, 0, 0, 5, 5, 5, 0, 0, 0, 0, 0, 5, 5, 5, 0},
			deadline: 3, caps: []float64{1, 2, 3, 4, 4.999, 5},
		},
	}
	br := NewBatchReplayer()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := batchAgg(tc.cos1, tc.cos2)
			cfg := Config{
				SlotsPerDay:   4,
				DeadlineSlots: tc.deadline,
				Commitment:    qos.PoolCommitment{Theta: 0.6},
			}
			out := make([]Result, len(tc.caps))
			if err := a.ReplayBatch(br, cfg, tc.caps, out); err != nil {
				t.Fatal(err)
			}
			for j, c := range tc.caps {
				scfg := cfg
				scfg.Capacity = c
				want, err := a.replayScalar(scfg)
				if err != nil {
					t.Fatal(err)
				}
				if want != out[j] {
					t.Errorf("lane %d cap=%v:\n scalar=%+v\n batch =%+v", j, c, want, out[j])
				}
			}
		})
	}
}

// TestBatchReplayCorruptionParity pins the NaN fault path: a corruption
// injected at "sim.replay" must surface the same NaN-statistics error
// from the batched replay as from the scalar one.
func TestBatchReplayCorruptionParity(t *testing.T) {
	a := batchAgg(
		[]float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
		[]float64{2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2})
	mk := func() Config {
		return Config{
			SlotsPerDay:   4,
			DeadlineSlots: 2,
			Commitment:    qos.PoolCommitment{Theta: 0.6},
			Inject:        faultinject.MustScript(1, faultinject.Rule{Point: "sim.replay", Corrupt: true}),
		}
	}
	scfg := mk()
	scfg.Capacity = 2
	_, scalarErr := a.replayScalar(scfg)
	if scalarErr == nil || !strings.Contains(scalarErr.Error(), "NaN") {
		t.Fatalf("scalar corruption error = %v, want NaN-statistics error", scalarErr)
	}
	out := make([]Result, 3)
	batchErr := a.ReplayBatch(NewBatchReplayer(), mk(), []float64{1, 2, 3}, out)
	if batchErr == nil || batchErr.Error() != scalarErr.Error() {
		t.Fatalf("batch corruption error = %v, want %v", batchErr, scalarErr)
	}
}

// TestBatchReplayValidation covers the batch-specific argument checks.
func TestBatchReplayValidation(t *testing.T) {
	a := batchAgg(make([]float64, 28), make([]float64, 28))
	cfg := Config{SlotsPerDay: 4, Commitment: qos.PoolCommitment{Theta: 0.6}}
	br := NewBatchReplayer()
	if err := a.ReplayBatch(br, cfg, nil, nil); err == nil {
		t.Error("empty capacity list accepted")
	}
	if err := a.ReplayBatch(br, cfg, []float64{1, 2}, make([]Result, 1)); err == nil {
		t.Error("mismatched out length accepted")
	}
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		if err := a.ReplayBatch(br, cfg, []float64{bad}, make([]Result, 1)); err == nil {
			t.Errorf("capacity %v accepted", bad)
		}
	}
}

// TestBatchReplayerReentrancyGuard verifies the always-on guard: a
// ReplayBatch on a BatchReplayer that is already mid-pass panics
// instead of corrupting lanes.
func TestBatchReplayerReentrancyGuard(t *testing.T) {
	a := batchAgg(make([]float64, 28), make([]float64, 28))
	cfg := Config{SlotsPerDay: 4, Commitment: qos.PoolCommitment{Theta: 0.6}}
	br := NewBatchReplayer()
	br.busy.Store(1) // simulate a pass in flight on another goroutine
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("concurrent ReplayBatch did not panic")
		}
	}()
	_ = a.ReplayBatch(br, cfg, []float64{1}, make([]Result, 1))
}

// TestSearchKaryMatchesBisect is the randomized search-level parity
// check: the batched K-ary search must return the identical SearchOutcome
// — capacity, Result and Feasible, bit for bit — as the
// scalar reference bisection, across feasible, infeasible and escalation
// regimes. An infeasible outcome's Result is decided, so there Replay at
// its Capacity stands in for it (sameOutcome).
func TestSearchKaryMatchesBisect(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	ctx := context.Background()
	for trial := 0; trial < 400; trial++ {
		weeks := 1 + r.Intn(3)
		slotsPerDay := 4 + r.Intn(8)
		a := randBatchAgg(r, weeks, slotsPerDay)
		cfg := Config{
			SlotsPerDay:   slotsPerDay,
			DeadlineSlots: r.Intn(4),
			Commitment:    qos.PoolCommitment{Theta: 0.5 + r.Float64()*0.45},
		}
		// Limits straddling CoS1Peak, TotalPeak and beyond cover the
		// infeasible, clamped and unclamped branches.
		limit := a.totalPeak * (0.3 + r.Float64()*1.2)
		if limit <= 0 {
			limit = 1
		}
		tol := 0.01 + r.Float64()*0.2
		want, err := a.searchBisect(ctx, cfg, limit, tol)
		if err != nil {
			t.Fatalf("trial %d: bisect: %v", trial, err)
		}
		got, err := a.searchKary(ctx, cfg, limit, tol)
		if err != nil {
			t.Fatalf("trial %d: kary: %v", trial, err)
		}
		if same, err := a.sameOutcome(cfg, got, want); err != nil || !same {
			t.Fatalf("trial %d (limit=%v tol=%v deadline=%d theta=%v, err %v):\n bisect=%+v\n kary  =%+v",
				trial, limit, tol, cfg.DeadlineSlots, cfg.Commitment.Theta, err, want, got)
		}
	}
}

// TestSearchInjectCountsPasses pins the fault-injection contract of the
// one search: an attached injector changes nothing about the outcome,
// "sim.replay" fires once per trace pass, and a corruption injected
// there surfaces through Search as the NaN-statistics error.
func TestSearchInjectCountsPasses(t *testing.T) {
	cos2 := make([]float64, 28)
	for i := range cos2 {
		cos2[i] = float64(1 + i%3)
	}
	a := batchAgg(make([]float64, 28), cos2)
	cfg := Config{
		SlotsPerDay:   4,
		DeadlineSlots: 2,
		Commitment:    qos.PoolCommitment{Theta: 0.6},
	}
	ctx := context.Background()
	want, err := a.Search(ctx, cfg, 10, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Feasible {
		t.Fatal("search infeasible")
	}

	inj := faultinject.MustScript(1) // no rules: counts hits, injects nothing
	reg := telemetry.NewRegistry()
	counted := cfg
	counted.Inject = inj
	counted.Hooks = telemetry.New(reg, nil)
	got, err := a.Search(ctx, counted, 10, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("outcome with a counting injector = %+v, want %+v", got, want)
	}
	passes := reg.Counter("sim_search_passes_total").Value()
	if hits := int64(inj.Hits("sim.replay")); passes == 0 || hits != passes {
		t.Errorf("sim.replay hits = %d, want one per trace pass (%d)", hits, passes)
	}
	if hits := inj.Hits("sim.required_capacity"); hits != 1 {
		t.Errorf("sim.required_capacity hits = %d, want 1", hits)
	}

	corrupt := cfg
	corrupt.Inject = faultinject.MustScript(1, faultinject.Rule{Point: "sim.replay", Corrupt: true})
	if _, err := a.Search(ctx, corrupt, 10, 0.05); err == nil || !strings.Contains(err.Error(), "NaN") {
		t.Errorf("corrupted search: err = %v, want the NaN-statistics error", err)
	}
}

// TestBatchReplayAllocs is the satellite alloc gate: once warmed, a
// batched replay of the search ladder must not allocate.
func TestBatchReplayAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	a := randBatchAgg(r, 2, 12)
	cfg := Config{SlotsPerDay: 12, DeadlineSlots: 3, Commitment: qos.PoolCommitment{Theta: 0.7}}
	caps := make([]float64, 16)
	for j := range caps {
		caps[j] = a.totalPeak * float64(j+1) / 16
	}
	out := make([]Result, len(caps))
	br := NewBatchReplayer()
	if err := a.ReplayBatch(br, cfg, caps, out); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := a.ReplayBatch(br, cfg, caps, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm ReplayBatch allocates %v times per pass, want 0", allocs)
	}
}

// TestSearchPassesSaved checks the tentpole's pass economics through
// the telemetry counters: on a production-shaped workload (the diurnal
// bursty trace the benchmarks use, backlog-light like real pool
// demand) a steady-state search spanning 10 bisection steps must make
// at least 5x fewer trace traversals (passes) than the probes a scalar
// bisection would have replayed one at a time. Two warm-up searches
// first teach the pooled replayer the trace's cost regime — the depth
// controller starts shallow on an unknown trace, and a consolidation's
// thousands of searches over one portfolio all run warm.
func TestSearchPassesSaved(t *testing.T) {
	a := benchBurstyAgg()
	reg := telemetry.NewRegistry()
	cfg := benchBatchConfig()
	cfg.Hooks = telemetry.New(reg, nil)
	ctx := context.Background()
	limit := a.totalPeak * 2
	// 2^9 < 1000 <= 2^10: exactly 10 halvings of the (cos1Peak,
	// totalPeak) bracket, the step count the default 0.05-CPU tolerance
	// yields on pool-sized capacity ranges.
	tol := (a.totalPeak - a.cos1Peak) / 1000
	br := NewBatchReplayer()
	for i := 0; i < 2; i++ {
		if _, err := a.searchKaryWith(ctx, cfg, limit, tol, br); err != nil {
			t.Fatal(err)
		}
	}
	passes0 := reg.Counter("sim_search_passes_total").Value()
	saved0 := reg.Counter("sim_search_passes_saved_total").Value()
	got, err := a.searchKaryWith(ctx, cfg, limit, tol, br)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Feasible {
		t.Fatal("search infeasible")
	}
	scalar, err := a.searchBisect(ctx, cfg, limit, tol)
	if err != nil {
		t.Fatal(err)
	}
	if got != scalar {
		t.Fatalf("kary=%+v, want %+v", got, scalar)
	}
	passes := reg.Counter("sim_search_passes_total").Value() - passes0
	saved := reg.Counter("sim_search_passes_saved_total").Value() - saved0
	probes := passes + saved
	t.Logf("probes=%d passes=%d saved=%d", probes, passes, saved)
	if passes == 0 {
		t.Fatal("no passes recorded")
	}
	if probes < 5*passes {
		t.Errorf("batched search saved too few passes: %d probes over %d passes (< 5x)", probes, passes)
	}
}
