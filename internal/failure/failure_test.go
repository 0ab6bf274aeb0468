package failure

import (
	"context"
	"testing"
	"time"

	"ropus/internal/placement"
	"ropus/internal/qos"
	"ropus/internal/sim"
)

// flatApp builds an app with constant allocations (see placement tests:
// flat CoS2 demand makes required capacity exactly cos1+cos2).
func flatApp(id string, cos2 float64, slots int) placement.App {
	c1 := make([]float64, slots)
	c2 := make([]float64, slots)
	for i := range c2 {
		c2[i] = cos2
	}
	return placement.App{ID: id, Workload: sim.Workload{AppID: id, CoS1: c1, CoS2: c2}}
}

// problem builds a normal-mode problem with per-app flat sizes.
func problem(sizes []float64, nServers, cpus int) *placement.Problem {
	apps := make([]placement.App, len(sizes))
	for i, s := range sizes {
		apps[i] = flatApp("app-"+string(rune('a'+i)), s, 28)
	}
	servers := make([]placement.Server, nServers)
	for i := range servers {
		servers[i] = placement.Server{ID: "srv-" + string(rune('a'+i)), CPUs: cpus, CPUCapacity: 1}
	}
	return &placement.Problem{
		Apps:          apps,
		Servers:       servers,
		Commitment:    qos.PoolCommitment{Theta: 0.9, Deadline: time.Hour},
		SlotsPerDay:   4,
		DeadlineSlots: 2,
		Tolerance:     0.01,
	}
}

// failureApps scales every app's demand by factor, standing in for the
// weaker failure-mode translation.
func failureApps(p *placement.Problem, factor float64) []placement.App {
	out := make([]placement.App, len(p.Apps))
	for i, a := range p.Apps {
		c1 := make([]float64, len(a.Workload.CoS1))
		c2 := make([]float64, len(a.Workload.CoS2))
		for j := range c1 {
			c1[j] = a.Workload.CoS1[j] * factor
			c2[j] = a.Workload.CoS2[j] * factor
		}
		out[i] = placement.App{ID: a.ID, Workload: sim.Workload{AppID: a.ID, CoS1: c1, CoS2: c2}}
	}
	return out
}

func ga() placement.GAConfig {
	cfg := placement.DefaultGAConfig(11)
	cfg.MaxGenerations = 60
	return cfg
}

func TestAnalyzeAbsorbableFailure(t *testing.T) {
	// Three servers of 10 CPUs, loads 6/6/6: any one server's apps (at
	// failure-mode factor 0.5 => size 3) fit on the remaining two.
	p := problem([]float64{6, 6, 6}, 3, 10)
	base, err := placement.Evaluate(p, placement.Assignment{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !base.Feasible {
		t.Fatal("base plan should be feasible")
	}
	in := Input{Problem: p, FailureApps: failureApps(p, 0.5), GA: ga()}
	report, err := Analyze(context.Background(), in, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Scenarios) != 3 {
		t.Fatalf("got %d scenarios, want 3", len(report.Scenarios))
	}
	if report.SpareNeeded {
		t.Error("SpareNeeded = true, want false: every failure absorbable")
	}
	for _, sc := range report.Scenarios {
		if !sc.Feasible {
			t.Errorf("scenario %s infeasible", sc.FailedServer)
		}
		if sc.Plan == nil || len(sc.Servers) != 2 {
			t.Errorf("scenario %s: plan=%v servers=%d", sc.FailedServer, sc.Plan != nil, len(sc.Servers))
		}
		if len(sc.AffectedApps) != 1 {
			t.Errorf("scenario %s affected = %v, want 1 app", sc.FailedServer, sc.AffectedApps)
		}
		// The failed server must not appear in the reduced list.
		for _, s := range sc.Servers {
			if s.ID == sc.FailedServer {
				t.Errorf("failed server %s still present", s.ID)
			}
		}
	}
}

func TestAnalyzeSpareNeeded(t *testing.T) {
	// Two servers loaded 9/9 on 10-CPU servers; failure QoS does not
	// reduce demand, so a failure cannot be absorbed.
	p := problem([]float64{9, 9}, 2, 10)
	base, err := placement.Evaluate(p, placement.Assignment{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	in := Input{Problem: p, FailureApps: failureApps(p, 1.0), GA: ga()}
	report, err := Analyze(context.Background(), in, base)
	if err != nil {
		t.Fatal(err)
	}
	if !report.SpareNeeded {
		t.Error("SpareNeeded = false, want true")
	}
}

func TestAnalyzeWeakerFailureQoSAvoidsSpare(t *testing.T) {
	// Same 9/9 scenario, but failure-mode QoS halves the allocations:
	// 9 + 4.5 > 10 still fails; use factor 0.1 -> 9 + 0.9 <= 10 fits.
	p := problem([]float64{9, 9}, 2, 10)
	base, err := placement.Evaluate(p, placement.Assignment{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	in := Input{Problem: p, FailureApps: failureApps(p, 0.1), GA: ga()}
	report, err := Analyze(context.Background(), in, base)
	if err != nil {
		t.Fatal(err)
	}
	if report.SpareNeeded {
		t.Error("weak failure QoS should absorb the failure without a spare")
	}
}

func TestAnalyzeSingleServerPool(t *testing.T) {
	p := problem([]float64{5}, 1, 10)
	base, err := placement.Evaluate(p, placement.Assignment{0})
	if err != nil {
		t.Fatal(err)
	}
	in := Input{Problem: p, FailureApps: failureApps(p, 0.5), GA: ga()}
	report, err := Analyze(context.Background(), in, base)
	if err != nil {
		t.Fatal(err)
	}
	if !report.SpareNeeded {
		t.Error("losing the only server must need a spare")
	}
}

func TestAnalyzeSkipsUnusedServers(t *testing.T) {
	p := problem([]float64{2, 3}, 4, 10)
	base, err := placement.Evaluate(p, placement.Assignment{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	in := Input{Problem: p, FailureApps: failureApps(p, 0.5), GA: ga()}
	report, err := Analyze(context.Background(), in, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Scenarios) != 1 {
		t.Errorf("got %d scenarios, want 1 (only one used server)", len(report.Scenarios))
	}
}

func TestAnalyzeInputErrors(t *testing.T) {
	p := problem([]float64{2, 3}, 2, 10)
	base, err := placement.Evaluate(p, placement.Assignment{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	good := Input{Problem: p, FailureApps: failureApps(p, 0.5), GA: ga()}

	if _, err := Analyze(context.Background(), Input{Problem: nil, FailureApps: good.FailureApps, GA: good.GA}, base); err == nil {
		t.Error("nil problem should fail")
	}
	short := good
	short.FailureApps = short.FailureApps[:1]
	if _, err := Analyze(context.Background(), short, base); err == nil {
		t.Error("mismatched failure app count should fail")
	}
	renamed := Input{Problem: p, FailureApps: failureApps(p, 0.5), GA: good.GA}
	renamed.FailureApps[0].ID = "zz"
	if _, err := Analyze(context.Background(), renamed, base); err == nil {
		t.Error("mismatched failure app ID should fail")
	}
	badGA := good
	badGA.GA.PopulationSize = 0
	if _, err := Analyze(context.Background(), badGA, base); err == nil {
		t.Error("bad GA config should fail")
	}
	if _, err := Analyze(context.Background(), good, nil); err == nil {
		t.Error("nil base plan should fail")
	}
	badPlan := &placement.Plan{Assignment: placement.Assignment{0}}
	if _, err := Analyze(context.Background(), good, badPlan); err == nil {
		t.Error("base plan with wrong assignment length should fail")
	}
}
