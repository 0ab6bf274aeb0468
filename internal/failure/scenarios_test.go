package failure

import (
	"bytes"
	"context"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"ropus/internal/checkpoint"
	"ropus/internal/faultinject"
	"ropus/internal/placement"
)

// specsFor builds a small scenario universe over the sweepInput pool
// (srv-a..srv-d, flat load 5 on 10-CPU servers, failure factor 0.5).
func specsFor() []ScenarioSpec {
	return []ScenarioSpec{
		{Name: "loss/srv-b", Servers: []string{"srv-b"}, Probability: 0.1},
		{Name: "zone-a", Servers: []string{"srv-a", "srv-c"}, Probability: 0.02},
		{Name: "cascade", Servers: []string{"srv-a"}, Cascade: true, OverloadFactor: 0.7, Probability: 0.01},
		{Name: "maintenance", Servers: []string{"srv-d"}, Theta: 0.5, Probability: 1},
	}
}

func testEconomics() *Economics {
	return &Economics{
		DefaultRevenuePerHour: 100,
		DefaultPenaltyPerHour: 10,
		PerApp: map[string]AppValue{
			"app-a": {RevenuePerHour: 500, PenaltyPerHour: 50},
		},
	}
}

func TestAnalyzeScenariosVerdicts(t *testing.T) {
	in, base, err := sweepInput(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	report, err := AnalyzeScenarios(context.Background(), in, base, specsFor(), testEconomics())
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Scenarios) != 4 {
		t.Fatalf("%d scenarios, want 4", len(report.Scenarios))
	}
	byName := make(map[string]MultiScenario)
	for _, sc := range report.Scenarios {
		byName[sc.Name] = sc
	}

	// Single loss and the two-server zone loss are absorbable at factor
	// 0.5 (2.5 extra per survivor on servers at 5/10).
	for _, name := range []string{"loss/srv-b", "zone-a", "maintenance"} {
		sc := byName[name]
		if !sc.Feasible || sc.Err != nil {
			t.Errorf("%s: Feasible=%v Err=%v, want absorbable", name, sc.Feasible, sc.Err)
		}
	}
	if sc := byName["maintenance"]; sc.Theta != 0.5 {
		t.Errorf("maintenance Theta = %v, want the 0.5 override", sc.Theta)
	}

	// The cascade at factor 0.7 (limit 7) takes down the whole pool:
	// srv-a's evacuee pushes srv-b to 7.5 in round one; round two spreads
	// two evacuees over srv-c/srv-d, 7.5 each.
	casc := byName["cascade"]
	if casc.Feasible {
		t.Error("cascade: whole-pool collapse should be infeasible")
	}
	if casc.CascadeRounds != 2 {
		t.Errorf("cascade rounds = %d, want 2", casc.CascadeRounds)
	}
	if want := []string{"srv-b", "srv-c", "srv-d"}; !reflect.DeepEqual(casc.CascadeAdded, want) {
		t.Errorf("CascadeAdded = %v, want %v", casc.CascadeAdded, want)
	}
	if len(casc.FailedServers) != 4 || len(casc.AffectedApps) != 4 {
		t.Errorf("cascade: failed=%v affected=%v, want the whole pool", casc.FailedServers, casc.AffectedApps)
	}
	if !report.SparesNeeded {
		t.Error("an infeasible scenario must set SparesNeeded")
	}

	// Economics: feasible scenarios risk the penalty alone, the
	// infeasible cascade risks revenue + penalty for all four apps
	// (app-a is priced 500/50, the rest default 100/10).
	if got, want := byName["loss/srv-b"].RevenueAtRisk, 10.0; got != want {
		t.Errorf("loss/srv-b at risk = %v, want %v", got, want)
	}
	if got, want := casc.RevenueAtRisk, (500.0+50)+3*(100.0+10); got != want {
		t.Errorf("cascade at risk = %v, want %v", got, want)
	}
	if got, want := casc.ExpectedRevenueAtRisk, 0.01*casc.RevenueAtRisk; got != want {
		t.Errorf("cascade expected = %v, want %v", got, want)
	}

	// Ranked() orders by expected revenue at risk, descending.
	ranked := report.Ranked()
	for i := 1; i < len(ranked); i++ {
		if ranked[i].ExpectedRevenueAtRisk > ranked[i-1].ExpectedRevenueAtRisk {
			t.Errorf("Ranked()[%d] out of order: %v after %v", i,
				ranked[i].ExpectedRevenueAtRisk, ranked[i-1].ExpectedRevenueAtRisk)
		}
	}
}

// TestScenarioRevenueConservation pins the conservation invariant: the
// per-app risk breakdown sums exactly (same float operations, same
// order) to the scenario total, and the scenario expectations sum to
// the report total.
func TestScenarioRevenueConservation(t *testing.T) {
	in, base, err := sweepInput(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	report, err := AnalyzeScenarios(context.Background(), in, base, specsFor(), testEconomics())
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, sc := range report.Scenarios {
		var sum float64
		for _, r := range sc.AppRisk {
			sum += r.AtRisk
		}
		if sum != sc.RevenueAtRisk {
			t.Errorf("%s: per-app sum %v != RevenueAtRisk %v", sc.Name, sum, sc.RevenueAtRisk)
		}
		if len(sc.AppRisk) != len(sc.AffectedApps) {
			t.Errorf("%s: %d AppRisk entries for %d affected apps", sc.Name, len(sc.AppRisk), len(sc.AffectedApps))
		}
		if sc.ExpectedRevenueAtRisk != sc.Probability*sc.RevenueAtRisk {
			t.Errorf("%s: expected %v != p %v * at-risk %v", sc.Name,
				sc.ExpectedRevenueAtRisk, sc.Probability, sc.RevenueAtRisk)
		}
		total += sc.ExpectedRevenueAtRisk
	}
	if total != report.TotalExpectedRevenueAtRisk {
		t.Errorf("scenario expectations sum to %v, report total is %v", total, report.TotalExpectedRevenueAtRisk)
	}

	// Nil economics price everything at zero but never error.
	free, err := AnalyzeScenarios(context.Background(), in, base, specsFor(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if free.TotalExpectedRevenueAtRisk != 0 {
		t.Errorf("nil economics priced the sweep at %v", free.TotalExpectedRevenueAtRisk)
	}
}

// TestCascadeClosureBounded pins the termination contract: the closure
// never runs more rounds than MaxRounds, never more than the pool has
// servers, and each bound r produces a casualty set contained in the
// bound-(r+1) set — the first r rounds of the fixed point are identical
// regardless of where the bound falls.
func TestCascadeClosureBounded(t *testing.T) {
	in, base, err := sweepInput(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	failedSet := func() map[int]bool { return map[int]bool{0: true} }

	var prev []int
	for r := 0; r <= len(in.Problem.Servers)+2; r++ {
		added, rounds := cascadeClosure(in, base, failedSet(), r, 0.7)
		if rounds > r {
			t.Fatalf("bound %d: ran %d rounds", r, rounds)
		}
		if rounds > len(in.Problem.Servers) {
			t.Fatalf("bound %d: %d rounds exceeds the server count", r, rounds)
		}
		isPrefixSuperset := len(added) >= len(prev)
		members := make(map[int]bool, len(added))
		for _, s := range added {
			members[s] = true
		}
		for _, s := range prev {
			if !members[s] {
				isPrefixSuperset = false
			}
		}
		if !isPrefixSuperset {
			t.Errorf("bound %d casualties %v do not contain bound %d casualties %v", r, added, r-1, prev)
		}
		prev = added
	}

	// An overload factor of zero fails every survivor instantly; the
	// closure must still return, in at most two rounds (one to fail all
	// survivors, one to observe an empty pool).
	added, rounds := cascadeClosure(in, base, failedSet(), 100, 0)
	if len(added) != 3 || rounds > 2 {
		t.Errorf("factor 0: added %v in %d rounds, want total collapse within 2", added, rounds)
	}
}

// TestMeanLoadCrossCheck ties the simulation to the analytic stability
// condition of a pool whose every application may run on any survivor:
// total load below total survivor capacity. Whenever the simulated
// re-consolidation finds a feasible survivor placement the condition
// must hold (feasibility is strictly stronger), and whenever it fails
// the simulation must agree nothing fits.
func TestMeanLoadCrossCheck(t *testing.T) {
	ctx := context.Background()
	sawFeasible, sawUnstable := false, false
	for _, load := range []float64{2, 4.9, 6, 8.5} {
		p := problem([]float64{load, load, load, load}, 4, 10)
		base, err := placement.Evaluate(p, placement.Assignment{0, 1, 2, 3})
		if err != nil {
			t.Fatal(err)
		}
		in := Input{Problem: p, FailureApps: failureApps(p, 1.0), GA: ga()}
		report, err := AnalyzeScenarios(ctx, in, base,
			[]ScenarioSpec{{Name: "loss", Servers: []string{"srv-a"}}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		sc := report.Scenarios[0]
		if sc.Err != nil {
			t.Fatalf("load %v: %v", load, sc.Err)
		}

		// The analytic side: four flat demands against the three
		// 10-CPU survivors of srv-a's loss.
		stable := float64(len(p.Apps))*load < 3*10

		if sc.Feasible {
			sawFeasible = true
			if !stable {
				t.Errorf("load %v: simulation feasible but total load exceeds survivor capacity", load)
			}
		}
		if !stable {
			sawUnstable = true
			if sc.Feasible {
				t.Errorf("load %v: total load exceeds survivor capacity but simulation feasible", load)
			}
		}
	}
	if !sawFeasible || !sawUnstable {
		t.Errorf("property suite vacuous: feasible=%v unstable=%v, want both regimes exercised",
			sawFeasible, sawUnstable)
	}
}

func TestAnalyzeScenariosParallelMatchesSequential(t *testing.T) {
	ctx := context.Background()
	var want []byte
	for _, tc := range []struct {
		name    string
		workers int
		cache   *placement.SimCache
	}{
		{"workers=1/cache=off", 1, nil},
		{"workers=8/cache=off", 8, nil},
		{"workers=8/cache=on", 8, placement.NewSimCache(0)},
	} {
		in, base, err := sweepInput(tc.workers, tc.cache)
		if err != nil {
			t.Fatal(err)
		}
		report, err := AnalyzeScenarios(ctx, in, base, specsFor(), testEconomics())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := reportJSON(t, report)
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: report differs from the workers=1 baseline", tc.name)
		}
	}
}

// TestAnalyzeScenariosJournalResume mirrors the resume contract for the
// scenario-class sweep: a mid-sweep interruption resumed from the
// journal is byte-identical to an uninterrupted, journal-free baseline.
func TestAnalyzeScenariosJournalResume(t *testing.T) {
	ctx := context.Background()
	baseIn, base, err := sweepInput(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := AnalyzeScenarios(ctx, baseIn, base, specsFor(), testEconomics())
	if err != nil {
		t.Fatal(err)
	}
	want := reportJSON(t, baseline)

	for _, workers := range []int{1, 8} {
		path := filepath.Join(t.TempDir(), "spec.ckpt")
		const run = uint64(0x0905)
		j, err := checkpoint.Open(path, run, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		cctx, cancel := context.WithCancel(ctx)
		in, basePlan, err := sweepInput(workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		in.Journal = j
		var fired atomic.Int32
		in.Inject = faultinject.Func(func(point, key string) faultinject.Outcome {
			if point == "failure.scenario" && fired.Add(1) == 2 {
				cancel()
			}
			return faultinject.Outcome{}
		})
		if _, err := AnalyzeScenarios(cctx, in, basePlan, specsFor(), testEconomics()); err != nil {
			t.Fatalf("workers=%d: interrupted sweep should degrade: %v", workers, err)
		}
		cancel()
		j.Close()

		j2, err := checkpoint.Open(path, run, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		in2, basePlan2, err := sweepInput(workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		in2.Journal = j2
		resumed, err := AnalyzeScenarios(ctx, in2, basePlan2, specsFor(), testEconomics())
		if err != nil {
			t.Fatalf("workers=%d: resumed sweep: %v", workers, err)
		}
		j2.Close()
		if got := reportJSON(t, resumed); !bytes.Equal(got, want) {
			t.Errorf("workers=%d: resumed scenario report differs from the baseline", workers)
		}
	}
}

// TestAnalyzeScenariosRepricedJournal: economics live outside the
// checkpointed verdict, so replaying a journal under different prices
// re-scores the same verdicts instead of invalidating the records.
func TestAnalyzeScenariosRepricedJournal(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "spec.ckpt")
	const run = uint64(7)

	j, err := checkpoint.Open(path, run, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	in, base, err := sweepInput(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	in.Journal = j
	first, err := AnalyzeScenarios(ctx, in, base, specsFor(), testEconomics())
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, err := checkpoint.Open(path, run, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	in2, base2, err := sweepInput(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	in2.Journal = j2
	in2.Inject = faultinject.Func(func(point, key string) faultinject.Outcome {
		t.Errorf("scenario %q recomputed despite a complete journal", key)
		return faultinject.Outcome{}
	})
	doubled := testEconomics()
	doubled.DefaultRevenuePerHour *= 2
	doubled.DefaultPenaltyPerHour *= 2
	repriced, err := AnalyzeScenarios(ctx, in2, base2, specsFor(), doubled)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Replayed() == 0 {
		t.Fatal("nothing replayed from a complete journal")
	}
	for i, sc := range repriced.Scenarios {
		if sc.Feasible != first.Scenarios[i].Feasible {
			t.Errorf("%s: verdict drifted across a re-priced replay", sc.Name)
		}
	}
	// Only apps priced by the defaults double; app-a keeps its explicit
	// price, so compare a default-priced scenario.
	for i, sc := range first.Scenarios {
		if sc.Name == "loss/srv-b" {
			if got, want := repriced.Scenarios[i].RevenueAtRisk, 2*sc.RevenueAtRisk; got != want {
				t.Errorf("re-priced at-risk = %v, want %v", got, want)
			}
		}
	}
}

func TestAnalyzeScenariosRejections(t *testing.T) {
	ctx := context.Background()
	in, base, err := sweepInput(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		specs []ScenarioSpec
		econ  *Economics
	}{
		{name: "no specs", specs: nil},
		{name: "unnamed", specs: []ScenarioSpec{{Servers: []string{"srv-a"}}}},
		{name: "no servers", specs: []ScenarioSpec{{Name: "x"}}},
		{name: "unknown server", specs: []ScenarioSpec{{Name: "x", Servers: []string{"srv-z"}}}},
		{name: "duplicate server", specs: []ScenarioSpec{{Name: "x", Servers: []string{"srv-a", "srv-a"}}}},
		{name: "duplicate name", specs: []ScenarioSpec{
			{Name: "x", Servers: []string{"srv-a"}}, {Name: "x", Servers: []string{"srv-b"}}}},
		{name: "bad theta", specs: []ScenarioSpec{{Name: "x", Servers: []string{"srv-a"}, Theta: 1.5}}},
		{name: "bad probability", specs: []ScenarioSpec{{Name: "x", Servers: []string{"srv-a"}, Probability: 2}}},
		{name: "bad economics", specs: []ScenarioSpec{{Name: "x", Servers: []string{"srv-a"}}},
			econ: &Economics{DefaultRevenuePerHour: -1}},
	}
	for _, tc := range cases {
		if _, err := AnalyzeScenarios(ctx, in, base, tc.specs, tc.econ); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
