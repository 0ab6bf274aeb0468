package failure

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"ropus/internal/faultinject"
	"ropus/internal/placement"
	"ropus/internal/resilience"
	"ropus/internal/robust"
)

// TestAttemptDeadlineEveryAttemptCutIsInconclusive: every attempt at
// srv-a's scenario starts with a required-capacity search slower than
// the attempt deadline. The search runs in the GA's cancel-detached
// seeding, so each attempt returns a Truncated best-so-far plan with a
// nil error; after the last one the scenario is inconclusive, keeps its
// identity, and carries no verdict: Feasible false and no Plan.
func TestAttemptDeadlineEveryAttemptCutIsInconclusive(t *testing.T) {
	in, base, err := sweepInput(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	const deadline = 100 * time.Millisecond
	var (
		mu    sync.Mutex
		armed bool // srv-a's attempt has started and not yet searched
		slow  int
	)
	in.Inject = faultinject.Func(func(point, key string) faultinject.Outcome {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case point == "failure.scenario":
			armed = key == "srv-a"
		case point == "sim.required_capacity" && armed:
			armed = false
			slow++
			return faultinject.Outcome{Delay: 2 * deadline}
		}
		return faultinject.Outcome{}
	})
	// Other scenarios get a third attempt in case a loaded host slows
	// one past the deadline; srv-a is cut on every attempt regardless.
	in.Retry = resilience.Policy{MaxAttempts: 3, AttemptTimeout: deadline}
	report, err := AnalyzeMulti(context.Background(), in, base, 1)
	if err != nil {
		t.Fatal(err)
	}
	if slow != 3 {
		t.Errorf("slow searches = %d, want one per attempt (3)", slow)
	}
	for _, sc := range report.Scenarios {
		if sc.Key() != "srv-a" {
			if sc.Err != nil {
				t.Errorf("%s: %v", sc.Key(), sc.Err)
			}
			continue
		}
		if sc.Err == nil || !sc.GaveUp || sc.Attempts != 3 || sc.Recovered {
			t.Errorf("srv-a: Err=%v GaveUp=%v Attempts=%d Recovered=%v, want a give-up after 3 attempts",
				sc.Err, sc.GaveUp, sc.Attempts, sc.Recovered)
		}
		if sc.Feasible || sc.Plan != nil || sc.Servers != nil {
			t.Errorf("srv-a: inconclusive scenario kept a verdict: Feasible=%v Plan=%v Servers=%v",
				sc.Feasible, sc.Plan != nil, sc.Servers)
		}
		if len(sc.FailedServers) != 1 || len(sc.AffectedApps) == 0 {
			t.Errorf("srv-a: identity lost: failed %v, affected %v", sc.FailedServers, sc.AffectedApps)
		}
	}
}

// basePlanFor evaluates the identity assignment for a 3x6-on-10 pool,
// which both Analyze tests start from.
func basePlanFor(t *testing.T, p *placement.Problem) *placement.Plan {
	t.Helper()
	base, err := placement.Evaluate(p, placement.Assignment{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !base.Feasible {
		t.Fatal("base plan should be feasible")
	}
	return base
}

func TestChaosScenarioErrorRecorded(t *testing.T) {
	p := problem([]float64{6, 6, 6}, 3, 10)
	base := basePlanFor(t, p)
	in := Input{
		Problem:     p,
		FailureApps: failureApps(p, 0.5),
		GA:          ga(),
		Inject: faultinject.MustScript(1,
			faultinject.Rule{Point: "failure.scenario", Key: "srv-b"}),
	}
	report, err := Analyze(context.Background(), in, base)
	if err != nil {
		t.Fatalf("partial failure should not abort the sweep: %v", err)
	}
	if len(report.Scenarios) != 3 {
		t.Fatalf("want all 3 scenarios recorded, got %d", len(report.Scenarios))
	}
	for _, sc := range report.Scenarios {
		if sc.FailedServer == "srv-b" {
			if !errors.Is(sc.Err, faultinject.ErrInjected) {
				t.Errorf("srv-b scenario should record the injected error, got %v", sc.Err)
			}
			if sc.Feasible {
				t.Error("errored scenario must not claim feasibility")
			}
		} else if sc.Err != nil {
			t.Errorf("scenario %s unexpectedly errored: %v", sc.FailedServer, sc.Err)
		} else if !sc.Feasible {
			t.Errorf("scenario %s should be absorbable", sc.FailedServer)
		}
	}
	if report.SpareNeeded {
		t.Error("an inconclusive (errored) scenario must not set SpareNeeded")
	}
	if got := report.Errors(); len(got) != 1 {
		t.Errorf("Errors() = %v, want exactly one", got)
	}
}

func TestChaosAllScenariosErrorAborts(t *testing.T) {
	p := problem([]float64{6, 6, 6}, 3, 10)
	base := basePlanFor(t, p)
	in := Input{
		Problem:     p,
		FailureApps: failureApps(p, 0.5),
		GA:          ga(),
		Inject: faultinject.MustScript(1,
			faultinject.Rule{Point: "failure.scenario"}), // every scenario
	}
	report, err := Analyze(context.Background(), in, base)
	if err == nil {
		t.Fatalf("all-scenarios-errored sweep should fail, got %+v", report)
	}
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Errorf("top-level error should wrap the injected cause, got %v", err)
	}
}

func TestCancelAnalyzePartialReport(t *testing.T) {
	p := problem([]float64{6, 6, 6}, 3, 10)
	base := basePlanFor(t, p)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel while the first scenario is being analyzed: the scenario
	// completes (its consolidation degrades to best-so-far) and the
	// sweep truncates at the next boundary.
	in := Input{
		Problem:     p,
		FailureApps: failureApps(p, 0.5),
		GA:          ga(),
		Workers:     1, // the completed-count assertion below assumes a serial sweep
		Inject: faultinject.Func(func(point, key string) faultinject.Outcome {
			cancel()
			return faultinject.Outcome{}
		}),
	}
	report, err := Analyze(ctx, in, base)
	if err != nil {
		t.Fatalf("cancelled sweep should degrade, got %v", err)
	}
	if !report.Truncated {
		t.Error("cancelled sweep should be flagged Truncated")
	}
	if len(report.Scenarios) != 1 {
		t.Errorf("want the 1 completed scenario, got %d", len(report.Scenarios))
	}
}

func TestCancelAnalyzeDeadline(t *testing.T) {
	p := problem([]float64{6, 6, 6}, 3, 10)
	base := basePlanFor(t, p)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: nothing gets analyzed
	in := Input{Problem: p, FailureApps: failureApps(p, 0.5), GA: ga()}
	report, err := Analyze(ctx, in, base)
	if err != nil {
		t.Fatalf("cancelled sweep should degrade, got %v", err)
	}
	if !report.Truncated || len(report.Scenarios) != 0 {
		t.Errorf("want empty truncated report, got truncated=%v scenarios=%d",
			report.Truncated, len(report.Scenarios))
	}
}

func TestChaosAnalyzeMultiScenarioError(t *testing.T) {
	p := problem([]float64{6, 6, 6}, 3, 10)
	base := basePlanFor(t, p)
	in := Input{
		Problem:     p,
		FailureApps: failureApps(p, 0.3),
		GA:          ga(),
		Inject: faultinject.MustScript(1,
			faultinject.Rule{Point: "failure.scenario", Key: "srv-a+srv-b"}),
	}
	report, err := AnalyzeMulti(context.Background(), in, base, 2)
	if err != nil {
		t.Fatalf("partial failure should not abort the sweep: %v", err)
	}
	if len(report.Scenarios) != 3 { // C(3,2)
		t.Fatalf("want 3 combinations, got %d", len(report.Scenarios))
	}
	errored := 0
	for _, sc := range report.Scenarios {
		if sc.Err != nil {
			errored++
			if sc.Key() != "srv-a+srv-b" {
				t.Errorf("wrong combination errored: %s", sc.Key())
			}
			if len(sc.FailedServers) != 2 {
				t.Errorf("errored scenario lost its identity: %v", sc.FailedServers)
			}
		}
	}
	if errored != 1 {
		t.Errorf("want exactly 1 errored combination, got %d", errored)
	}
}

func TestChaosAnalyzePanicRecovered(t *testing.T) {
	p := problem([]float64{6, 6, 6}, 3, 10)
	base := basePlanFor(t, p)
	in := Input{
		Problem:     p,
		FailureApps: failureApps(p, 0.5),
		GA:          ga(),
		Inject: faultinject.Func(func(point, key string) faultinject.Outcome {
			panic("chaos monkey")
		}),
	}
	// The panic fires inside a scenario's consolidation; the package
	// boundary converts it into an error instead of crashing the caller.
	report, err := Analyze(context.Background(), in, base)
	if err == nil {
		t.Fatalf("want recovered panic error, got %+v", report)
	}
	if !errors.Is(err, robust.ErrPanic) {
		t.Errorf("error should wrap robust.ErrPanic, got %v", err)
	}
}
