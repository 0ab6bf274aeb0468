package placement

import (
	"context"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"ropus/internal/qos"
	"ropus/internal/sim"
	"ropus/internal/telemetry"
)

// flatApp builds an app with constant per-slot allocations. Flat CoS2
// demand can never catch up on deficits, so its required capacity is
// exactly cos1+cos2 regardless of θ — turning placement into exact
// bin-packing, which makes expectations analytic.
func flatApp(id string, cos1, cos2 float64, slots int) App {
	c1 := make([]float64, slots)
	c2 := make([]float64, slots)
	for i := range c1 {
		c1[i] = cos1
		c2[i] = cos2
	}
	return App{ID: id, Workload: sim.Workload{AppID: id, CoS1: c1, CoS2: c2}}
}

func servers(n, cpus int) []Server {
	out := make([]Server, n)
	for i := range out {
		out[i] = Server{ID: "srv-" + string(rune('a'+i)), CPUs: cpus, CPUCapacity: 1}
	}
	return out
}

func binPackProblem(sizes []float64, nServers, cpus int) *Problem {
	apps := make([]App, len(sizes))
	for i, s := range sizes {
		apps[i] = flatApp("app-"+string(rune('a'+i)), 0, s, 28)
	}
	return &Problem{
		Apps:          apps,
		Servers:       servers(nServers, cpus),
		Commitment:    qos.PoolCommitment{Theta: 0.9, Deadline: time.Hour},
		SlotsPerDay:   4,
		DeadlineSlots: 2,
		Tolerance:     0.01,
	}
}

func TestServerValidate(t *testing.T) {
	good := Server{ID: "s", CPUs: 16, CPUCapacity: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("valid server rejected: %v", err)
	}
	if got := good.Capacity(); got != 16 {
		t.Errorf("Capacity = %v, want 16", got)
	}
	bad := []Server{
		{CPUs: 16, CPUCapacity: 1},
		{ID: "s", CPUs: 0, CPUCapacity: 1},
		{ID: "s", CPUs: 16, CPUCapacity: 0},
		{ID: "s", CPUs: 16, CPUCapacity: math.NaN()},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad server %d accepted", i)
		}
	}
}

func TestProblemValidate(t *testing.T) {
	good := binPackProblem([]float64{1, 2}, 2, 4)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid problem rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Problem)
	}{
		{name: "no apps", mutate: func(p *Problem) { p.Apps = nil }},
		{name: "no servers", mutate: func(p *Problem) { p.Servers = nil }},
		{name: "app id mismatch", mutate: func(p *Problem) { p.Apps[0].ID = "other" }},
		{name: "duplicate apps", mutate: func(p *Problem) {
			p.Apps[1] = p.Apps[0]
		}},
		{name: "misaligned traces", mutate: func(p *Problem) {
			p.Apps[1] = flatApp(p.Apps[1].ID, 0, 1, 7)
		}},
		{name: "duplicate servers", mutate: func(p *Problem) { p.Servers[1].ID = p.Servers[0].ID }},
		{name: "bad slots per day", mutate: func(p *Problem) { p.SlotsPerDay = 0 }},
		{name: "negative deadline", mutate: func(p *Problem) { p.DeadlineSlots = -1 }},
		{name: "negative tolerance", mutate: func(p *Problem) { p.Tolerance = -0.1 }},
		{name: "bad commitment", mutate: func(p *Problem) { p.Commitment.Theta = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := binPackProblem([]float64{1, 2}, 2, 4)
			tt.mutate(p)
			if err := p.Validate(); err == nil {
				t.Error("Validate() should fail")
			}
		})
	}
}

func TestAssignmentValidate(t *testing.T) {
	p := binPackProblem([]float64{1, 2}, 2, 4)
	if err := (Assignment{0, 1}).Validate(p); err != nil {
		t.Errorf("valid assignment rejected: %v", err)
	}
	if err := (Assignment{0}).Validate(p); err == nil {
		t.Error("short assignment accepted")
	}
	if err := (Assignment{0, 2}).Validate(p); err == nil {
		t.Error("out-of-range server accepted")
	}
	if err := (Assignment{-1, 0}).Validate(p); err == nil {
		t.Error("negative server accepted")
	}
}

func TestServerValue(t *testing.T) {
	if got := serverValue(0.5, 2, 0, true); got != 1 {
		t.Errorf("empty server value = %v, want 1", got)
	}
	if got := serverValue(1.2, 2, 3, false); got != -3 {
		t.Errorf("overbooked server value = %v, want -3", got)
	}
	want := math.Pow(0.5, 4)
	if got := serverValue(0.5, 2, 1, true); math.Abs(got-want) > 1e-12 {
		t.Errorf("feasible server value = %v, want %v", got, want)
	}
	// Higher utilization always scores higher; more CPUs demand more.
	if serverValue(0.9, 16, 1, true) <= serverValue(0.5, 16, 1, true) {
		t.Error("score should increase with utilization")
	}
	if serverValue(0.8, 16, 1, true) >= serverValue(0.8, 2, 1, true) {
		t.Error("servers with more CPUs should need higher utilization for the same value")
	}
}

func TestEvaluateBinPacking(t *testing.T) {
	p := binPackProblem([]float64{3, 4}, 2, 8)
	plan, err := Evaluate(p, Assignment{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible {
		t.Fatal("3+4 on an 8-CPU server should be feasible")
	}
	if plan.ServersUsed != 1 {
		t.Errorf("ServersUsed = %d, want 1", plan.ServersUsed)
	}
	if math.Abs(plan.RequiredTotal-7) > 0.05 {
		t.Errorf("RequiredTotal = %v, want ~7", plan.RequiredTotal)
	}
	// Score: one used server with U=7/8 and Z=8, one empty server.
	wantScore := 1 + math.Pow(7.0/8.0, 16)
	if math.Abs(plan.Score-wantScore) > 0.05 {
		t.Errorf("Score = %v, want ~%v", plan.Score, wantScore)
	}

	over, err := Evaluate(p, Assignment{1, 1}) // both on server 1? still fits
	if err != nil {
		t.Fatal(err)
	}
	if !over.Feasible {
		t.Error("same packing on the other server should also fit")
	}
}

func TestEvaluateOverbooked(t *testing.T) {
	p := binPackProblem([]float64{5, 5}, 2, 8)
	plan, err := Evaluate(p, Assignment{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Feasible {
		t.Fatal("5+5 on an 8-CPU server must be infeasible")
	}
	// Overbooked server contributes -2; empty contributes +1.
	if math.Abs(plan.Score-(-2+1)) > 1e-9 {
		t.Errorf("Score = %v, want -1", plan.Score)
	}
}

func TestEvaluateCoS1Guarantee(t *testing.T) {
	// CoS1 peaks must never be overbooked even at theta near zero.
	p := binPackProblem(nil, 1, 8)
	p.Apps = []App{flatApp("a", 5, 0, 28), flatApp("b", 4, 0, 28)}
	p.Commitment.Theta = 0.01
	plan, err := Evaluate(p, Assignment{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Feasible {
		t.Error("CoS1 9 on an 8-CPU server must be infeasible regardless of theta")
	}
}

func TestOneAppPerServer(t *testing.T) {
	p := binPackProblem([]float64{1, 2, 3}, 3, 8)
	a, err := OneAppPerServer(p)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range a {
		if s != i {
			t.Errorf("app %d on server %d, want %d", i, s, i)
		}
	}
	p2 := binPackProblem([]float64{1, 2, 3}, 2, 8)
	if _, err := OneAppPerServer(p2); err == nil {
		t.Error("too few servers should fail")
	}
}

func TestGreedyBinPacking(t *testing.T) {
	// Sizes pack perfectly into three 10-CPU servers.
	sizes := []float64{6, 6, 4, 4, 3, 3, 2}
	p := binPackProblem(sizes, 7, 10)

	ffd, err := FirstFitDecreasing(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !ffd.Feasible {
		t.Fatal("FFD plan infeasible")
	}
	if ffd.ServersUsed != 3 {
		t.Errorf("FFD ServersUsed = %d, want 3", ffd.ServersUsed)
	}

	bfd, err := BestFitDecreasing(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !bfd.Feasible {
		t.Fatal("BFD plan infeasible")
	}
	if bfd.ServersUsed != 3 {
		t.Errorf("BFD ServersUsed = %d, want 3", bfd.ServersUsed)
	}
}

func TestGreedyImpossible(t *testing.T) {
	p := binPackProblem([]float64{20}, 2, 10)
	if _, err := FirstFitDecreasing(context.Background(), p); err == nil {
		t.Error("oversized app should fail FFD")
	}
	if _, err := BestFitDecreasing(context.Background(), p); err == nil {
		t.Error("oversized app should fail BFD")
	}
}

func TestGAConfigValidate(t *testing.T) {
	good := DefaultGAConfig(1)
	if err := good.Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
	good.PopulationSize = minPopulation
	if err := good.Validate(); err != nil {
		t.Errorf("smallest population rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*GAConfig)
	}{
		{name: "population too small", mutate: func(c *GAConfig) { c.PopulationSize = 1 }},
		{name: "no generations", mutate: func(c *GAConfig) { c.MaxGenerations = 0 }},
		{name: "no stagnation", mutate: func(c *GAConfig) { c.Stagnation = 0 }},
		{name: "elite too big", mutate: func(c *GAConfig) { c.PopulationSize = gaElite }},
		{name: "tournament exceeds population", mutate: func(c *GAConfig) { c.PopulationSize = gaTournament - 1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := DefaultGAConfig(1)
			tt.mutate(&c)
			if err := c.Validate(); err == nil {
				t.Error("Validate() should fail")
			}
		})
	}
}

func TestConsolidateBinPacking(t *testing.T) {
	sizes := []float64{6, 6, 4, 4, 3, 3, 2}
	p := binPackProblem(sizes, 7, 10)
	initial, err := OneAppPerServer(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultGAConfig(7)
	cfg.MaxGenerations = 120
	plan, err := Consolidate(context.Background(), p, initial, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible {
		t.Fatal("GA plan infeasible")
	}
	if plan.ServersUsed > 4 {
		t.Errorf("GA ServersUsed = %d, want <= 4 (optimum 3)", plan.ServersUsed)
	}
	if err := plan.Assignment.Validate(p); err != nil {
		t.Errorf("GA returned invalid assignment: %v", err)
	}
	// All apps accounted for.
	if len(plan.Assignment) != len(sizes) {
		t.Errorf("assignment covers %d apps, want %d", len(plan.Assignment), len(sizes))
	}
}

func TestConsolidateDeterministic(t *testing.T) {
	sizes := []float64{5, 4, 3, 2, 2}
	run := func() *Plan {
		p := binPackProblem(sizes, 5, 10)
		initial, err := OneAppPerServer(p)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultGAConfig(99)
		cfg.MaxGenerations = 60
		plan, err := Consolidate(context.Background(), p, initial, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	a, b := run(), run()
	if a.Score != b.Score || a.ServersUsed != b.ServersUsed {
		t.Errorf("same seed produced different plans: %v/%d vs %v/%d",
			a.Score, a.ServersUsed, b.Score, b.ServersUsed)
	}
	for i := range a.Assignment {
		if a.Assignment[i] != b.Assignment[i] {
			t.Fatalf("assignments differ at app %d", i)
		}
	}
}

func TestConsolidateInfeasibleProblem(t *testing.T) {
	p := binPackProblem([]float64{20, 20}, 2, 10)
	initial := Assignment{0, 1}
	if _, err := Consolidate(context.Background(), p, initial, DefaultGAConfig(1)); err == nil {
		t.Error("unsatisfiable problem should error")
	}
}

func TestConsolidateInputErrors(t *testing.T) {
	p := binPackProblem([]float64{1}, 1, 10)
	if _, err := Consolidate(context.Background(), p, Assignment{0, 0}, DefaultGAConfig(1)); err == nil {
		t.Error("wrong-length assignment should fail")
	}
	bad := DefaultGAConfig(1)
	bad.PopulationSize = 0
	if _, err := Consolidate(context.Background(), p, Assignment{0}, bad); err == nil {
		t.Error("bad GA config should fail")
	}
	broken := binPackProblem([]float64{1}, 1, 10)
	broken.SlotsPerDay = 0
	if _, err := Consolidate(context.Background(), broken, Assignment{0}, DefaultGAConfig(1)); err == nil {
		t.Error("bad problem should fail")
	}
}

func TestEvaluatorCache(t *testing.T) {
	p := binPackProblem([]float64{2, 3}, 2, 10)
	reg := telemetry.NewRegistry()
	p.Hooks = telemetry.New(reg, nil)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	hits, misses := reg.Counter("placement_eval_cache_hits_total"), reg.Counter("placement_eval_cache_misses_total")
	ev := newEvaluator(p)
	if _, err := ev.evaluate(context.Background(), Assignment{0, 0}); err != nil {
		t.Fatal(err)
	}
	missesAfterFirst := misses.Value()
	if _, err := ev.evaluate(context.Background(), Assignment{0, 0}); err != nil {
		t.Fatal(err)
	}
	if misses.Value() != missesAfterFirst {
		t.Errorf("second evaluation missed the cache: %d -> %d", missesAfterFirst, misses.Value())
	}
	if hits.Value() == 0 {
		t.Error("expected cache hits on repeat evaluation")
	}
}

func TestGroupByServer(t *testing.T) {
	var g grouping
	// The second pass reuses the buffers of a larger first one.
	groupByServer(Assignment{0, 0, 0, 0, 0, 0}, 7, &g)
	groupByServer(Assignment{1, 0, 1, 2}, 4, &g)
	for s, want := range [][]int{{1}, {0, 2}, {3}, {}} {
		if got := g.of(s); !reflect.DeepEqual(append([]int{}, got...), want) {
			t.Errorf("group of server %d = %v, want %v", s, got, want)
		}
	}
}

func TestBurstyWorkloadSharesCapacity(t *testing.T) {
	// Two anti-correlated bursty apps: each has peak 6 but they never
	// burst together, so both fit on one 8-CPU server with theta=0.9
	// even though the sum of peaks is 12.
	slots := 28
	mk := func(id string, burstAt int) App {
		c2 := make([]float64, slots)
		for i := range c2 {
			c2[i] = 1
		}
		for i := burstAt; i < burstAt+2; i++ {
			c2[i] = 6
		}
		return App{ID: id, Workload: sim.Workload{AppID: id, CoS1: make([]float64, slots), CoS2: c2}}
	}
	p := &Problem{
		Apps:          []App{mk("a", 4), mk("b", 12)},
		Servers:       servers(2, 8),
		Commitment:    qos.PoolCommitment{Theta: 0.9, Deadline: time.Hour},
		SlotsPerDay:   4,
		DeadlineSlots: 2,
		Tolerance:     0.01,
	}
	plan, err := Evaluate(p, Assignment{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible {
		t.Fatal("anti-correlated bursts should fit together")
	}
	if plan.RequiredTotal >= 12 {
		t.Errorf("RequiredTotal = %v, want below the sum of peaks 12", plan.RequiredTotal)
	}
}

// TestPeakOrderFromPrepare pins that the packers' order, read from the
// peaks App.Prepare records, is the order of each workload's peak total
// walked over its slots, ties in problem order included.
func TestPeakOrderFromPrepare(t *testing.T) {
	p := lightProblem(7, 12, 4, nil)
	p.Apps = append(p.Apps, p.Apps[3], p.Apps[5]) // equal peaks: a tie
	p.Apps[12].ID, p.Apps[13].ID = "tie-3", "tie-5"
	p.Apps[12].Workload.AppID, p.Apps[13].Workload.AppID = "tie-3", "tie-5"
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	want := make([]int, len(p.Apps))
	peaks := make([]float64, len(p.Apps))
	for i, a := range p.Apps {
		want[i], peaks[i] = i, peakTotal(a.Workload)
	}
	sort.SliceStable(want, func(i, j int) bool { return peaks[want[i]] > peaks[want[j]] })
	if got := byDecreasingPeak(p); !reflect.DeepEqual(got, want) {
		t.Fatalf("order from prepared peaks %v, walked %v", got, want)
	}
}
