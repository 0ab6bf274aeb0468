package core

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"ropus/internal/placement"
	"ropus/internal/portfolio"
	"ropus/internal/qos"
	"ropus/internal/telemetry"
	"ropus/internal/trace"
	"ropus/internal/workload"
)

func caseStudyRequirement() qos.Requirement {
	normal := qos.AppQoS{ULow: 0.5, UHigh: 0.66, UDegr: 0.9, MPercent: 97}
	fail := normal
	fail.TDegr = 30 * time.Minute
	return qos.Requirement{Normal: normal, Failure: fail}
}

func testConfig() Config {
	ga := placement.DefaultGAConfig(17)
	ga.MaxGenerations = 40
	ga.Stagnation = 10
	return Config{
		Commitment:           qos.PoolCommitment{Theta: 0.6, Deadline: time.Hour},
		ServerCPUs:           16,
		ServerCapacityPerCPU: 1,
		GA:                   ga,
		Tolerance:            0.1,
	}
}

// smallFleet generates a quick 6-app, 1-week fleet at a 1-hour interval.
func smallFleet(t *testing.T) trace.Set {
	t.Helper()
	set, err := workload.Fleet(workload.FleetConfig{
		Spiky:    1,
		Bursty:   2,
		Smooth:   3,
		Weeks:    1,
		Interval: time.Hour,
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestConfigValidate(t *testing.T) {
	if err := testConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{name: "bad commitment", mutate: func(c *Config) { c.Commitment.Theta = 0 }},
		{name: "zero CPUs", mutate: func(c *Config) { c.ServerCPUs = 0 }},
		{name: "zero capacity per CPU", mutate: func(c *Config) { c.ServerCapacityPerCPU = 0 }},
		{name: "negative tolerance", mutate: func(c *Config) { c.Tolerance = -1 }},
		{name: "bad GA", mutate: func(c *Config) { c.GA.PopulationSize = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := testConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("Validate() should fail")
			}
			if _, err := New(cfg); err == nil {
				t.Error("New() should fail")
			}
		})
	}
}

func TestRequirements(t *testing.T) {
	def := caseStudyRequirement()
	special := def
	special.Normal.MPercent = 100
	reqs := Requirements{Default: def, PerApp: map[string]qos.Requirement{"x": special}}
	if err := reqs.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := reqs.For("x"); got.Normal.MPercent != 100 {
		t.Error("per-app requirement not honoured")
	}
	if got := reqs.For("other"); got.Normal.MPercent != 97 {
		t.Error("default requirement not honoured")
	}

	bad := reqs
	bad.Default.Normal.ULow = 0
	if err := bad.Validate(); err == nil {
		t.Error("invalid default accepted")
	}
	bad = Requirements{Default: def, PerApp: map[string]qos.Requirement{"x": {}}}
	if err := bad.Validate(); err == nil {
		t.Error("invalid per-app requirement accepted")
	}
}

func TestTranslate(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	set := smallFleet(t)
	reqs := Requirements{Default: caseStudyRequirement()}
	tr, err := f.Translate(context.Background(), set, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Normal) != len(set) || len(tr.Failure) != len(set) {
		t.Fatalf("translation covers %d/%d apps, want %d", len(tr.Normal), len(tr.Failure), len(set))
	}
	for i, p := range tr.Normal {
		if p.AppID != set[i].AppID {
			t.Errorf("partition %d is %q, want %q", i, p.AppID, set[i].AppID)
		}
	}
	if tr.CPeakTotal() <= 0 {
		t.Error("CPeakTotal should be positive")
	}
	// Failure mode carries the extra Tdegr constraint, so its caps are
	// at least as large as normal mode's.
	for i := range tr.Normal {
		if tr.Failure[i].DNewMax < tr.Normal[i].DNewMax-1e-9 {
			t.Errorf("app %s: failure cap %v below normal cap %v",
				set[i].AppID, tr.Failure[i].DNewMax, tr.Normal[i].DNewMax)
		}
	}
}

func TestTranslateErrors(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	reqs := Requirements{Default: caseStudyRequirement()}
	if _, err := f.Translate(context.Background(), trace.Set{}, reqs); err == nil {
		t.Error("empty trace set accepted")
	}
	set := smallFleet(t)
	if _, err := f.Translate(context.Background(), set, Requirements{}); err == nil {
		t.Error("invalid requirements accepted")
	}
}

func TestFullPipeline(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	set := smallFleet(t)
	reqs := Requirements{Default: caseStudyRequirement()}
	report, err := f.Run(context.Background(), set, reqs)
	if err != nil {
		t.Fatal(err)
	}

	cons := report.Consolidation
	if !cons.Plan.Feasible {
		t.Fatal("consolidated plan infeasible")
	}
	if cons.ServersUsed() < 1 || cons.ServersUsed() > len(set) {
		t.Errorf("ServersUsed = %d, want within [1,%d]", cons.ServersUsed(), len(set))
	}
	// Consolidation should beat one-app-per-server for this fleet.
	if cons.ServersUsed() >= len(set) {
		t.Errorf("no consolidation achieved: %d servers for %d apps", cons.ServersUsed(), len(set))
	}
	// Required capacity cannot exceed the sum of peak allocations.
	if cons.CRequTotal() > report.Translation.CPeakTotal()+1e-6 {
		t.Errorf("CRequ %v exceeds CPeak %v", cons.CRequTotal(), report.Translation.CPeakTotal())
	}
	if report.Failures == nil {
		t.Fatal("missing failure report")
	}
	if len(report.Failures.Scenarios) != cons.ServersUsed() {
		t.Errorf("%d failure scenarios for %d used servers",
			len(report.Failures.Scenarios), cons.ServersUsed())
	}
}

func TestPerAppRequirementsFlowThroughPipeline(t *testing.T) {
	// A premium application (no degradation allowed) among standard
	// ones: its translation must keep the full peak while the others'
	// caps shrink.
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	set := smallFleet(t)
	premiumID := set[0].AppID
	standard := caseStudyRequirement()
	premium := standard
	premium.Normal.MPercent = 100
	premium.Normal.TDegr = 0

	tr, err := f.Translate(context.Background(), set, Requirements{
		Default: standard,
		PerApp:  map[string]qos.Requirement{premiumID: premium},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range tr.Normal {
		if p.AppID == premiumID {
			if p.DNewMax != p.DMax {
				t.Errorf("premium app capped: %v < %v", p.DNewMax, p.DMax)
			}
			continue
		}
		// Standard apps with bursty traces should see some reduction.
		if set[i].Peak() > 0 && p.DNewMax > p.DMax {
			t.Errorf("app %s cap above peak", p.AppID)
		}
	}
	// And the whole pipeline still runs with mixed requirements.
	cons, err := f.Consolidate(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if !cons.Plan.Feasible {
		t.Error("mixed-requirement consolidation infeasible")
	}
}

func TestPlanForMultiFailures(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	set := smallFleet(t)
	reqs := Requirements{Default: caseStudyRequirement()}
	tr, err := f.Translate(context.Background(), set, reqs)
	if err != nil {
		t.Fatal(err)
	}
	cons, err := f.Consolidate(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if cons.ServersUsed() < 2 {
		t.Skip("fleet consolidated to a single server; k=2 not applicable")
	}
	report, err := f.PlanForMultiFailures(context.Background(), tr, cons, 2)
	if err != nil {
		t.Fatal(err)
	}
	used := cons.ServersUsed()
	wantScenarios := used * (used - 1) / 2
	if len(report.Scenarios) != wantScenarios {
		t.Errorf("%d scenarios, want C(%d,2)=%d", len(report.Scenarios), used, wantScenarios)
	}
	if _, err := f.PlanForMultiFailures(context.Background(), nil, nil, 2); err == nil {
		t.Error("nil inputs accepted")
	}
	if _, err := f.PlanForMultiFailures(context.Background(), tr, cons, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestLinearScoreConfig(t *testing.T) {
	cfg := testConfig()
	cfg.Score = placement.ScoreLinear
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	set := smallFleet(t)
	reqs := Requirements{Default: caseStudyRequirement()}
	tr, err := f.Translate(context.Background(), set, reqs)
	if err != nil {
		t.Fatal(err)
	}
	cons, err := f.Consolidate(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if cons.Problem.Score != placement.ScoreLinear {
		t.Error("score model not threaded through to the problem")
	}
	if !cons.Plan.Feasible {
		t.Error("linear-score consolidation infeasible")
	}
}

func TestConsolidateErrors(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Consolidate(context.Background(), nil); err == nil {
		t.Error("nil translation accepted")
	}
	if _, err := f.Consolidate(context.Background(), &Translation{}); err == nil {
		t.Error("empty translation accepted")
	}
	if _, err := f.PlanForFailures(context.Background(), nil, nil); err == nil {
		t.Error("nil inputs accepted")
	}
}

// TestSharedExternalCache: two frameworks handed the same SimCache warm
// each other up — the second run's lookups hit results the first run
// simulated — and results stay identical to an uncached run.
func TestSharedExternalCache(t *testing.T) {
	set := smallFleet(t)
	reqs := Requirements{Default: caseStudyRequirement()}

	cold := testConfig()
	cold.CacheBytes = -1
	fCold, err := New(cold)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fCold.Run(context.Background(), set, reqs)
	if err != nil {
		t.Fatal(err)
	}

	shared := placement.NewSimCache(0)
	for i := 0; i < 2; i++ {
		cfg := testConfig()
		cfg.Cache = shared
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := f.Run(context.Background(), set, reqs)
		if err != nil {
			t.Fatal(err)
		}
		if got.Failures.SpareNeeded != want.Failures.SpareNeeded ||
			got.Consolidation.ServersUsed() != want.Consolidation.ServersUsed() ||
			got.Consolidation.CRequTotal() != want.Consolidation.CRequTotal() {
			t.Fatalf("run %d with shared cache diverged from the uncached run", i)
		}
		if f.CacheStats() != shared.Stats() {
			t.Fatalf("run %d: CacheStats not served by the shared cache", i)
		}
	}
	stats := shared.Stats()
	if stats.Hits == 0 {
		t.Errorf("second run over a shared cache recorded no hits: %+v", stats)
	}
}

// TestTranslationPreparesAppsOnce: Translate leaves the prepared normal-
// and failure-mode apps on the Translation, every consolidation and
// failure sweep of the plan shares those values instead of re-walking
// the traces, and a hand-built Translation without them plans the same.
func TestTranslationPreparesAppsOnce(t *testing.T) {
	ctx := context.Background()
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := f.Translate(ctx, smallFleet(t), Requirements{Default: caseStudyRequirement()})
	if err != nil {
		t.Fatal(err)
	}
	cons, err := f.Consolidate(ctx, tr)
	if err != nil {
		t.Fatal(err)
	}
	if &cons.Problem.Apps[0] != &tr.normalApps[0] {
		t.Error("Consolidate prepared its own normal-mode apps")
	}
	for range 2 {
		in, err := f.failureInput(tr, cons)
		if err != nil {
			t.Fatal(err)
		}
		if &in.FailureApps[0] != &tr.failureApps[0] {
			t.Error("failureInput prepared its own failure-mode apps")
		}
	}

	byHand := &Translation{Traces: tr.Traces, Normal: tr.Normal, Failure: tr.Failure}
	consByHand, err := f.Consolidate(ctx, byHand)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(consByHand.Plan.Assignment, cons.Plan.Assignment) {
		t.Error("a hand-built Translation consolidates differently")
	}
	if _, err := f.PlanForFailures(ctx, byHand, consByHand); err != nil {
		t.Errorf("a hand-built Translation cannot be swept: %v", err)
	}
}

// TestTranslateSharesEqualModes: an app whose failure-mode QoS equals its
// normal one is translated and digested once, and the plan is the one
// separately translated failure partitions give, byte for byte.
func TestTranslateSharesEqualModes(t *testing.T) {
	ctx := context.Background()
	reg := telemetry.NewRegistry()
	cfg := testConfig()
	cfg.Hooks = telemetry.New(reg, nil)
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	set := smallFleet(t)
	translations := func() int64 { return reg.Snapshot().Counters["portfolio_translations_total"] }

	normal := caseStudyRequirement().Normal
	same := Requirements{Default: qos.Requirement{Normal: normal, Failure: normal}}
	tr, err := f.Translate(ctx, set, same)
	if err != nil {
		t.Fatal(err)
	}
	if got := translations(); got != int64(len(set)) {
		t.Errorf("equal modes: %d translations for %d apps, want one each", got, len(set))
	}
	for i := range set {
		if tr.Failure[i] != tr.Normal[i] {
			t.Errorf("app %s: failure partition is a second copy of the normal one", set[i].AppID)
		}
	}
	before := translations()
	if _, err := f.Translate(ctx, set, Requirements{Default: caseStudyRequirement()}); err != nil {
		t.Fatal(err)
	}
	if got := translations() - before; got != int64(2*len(set)) {
		t.Errorf("distinct modes: %d translations for %d apps, want two each", got, len(set))
	}

	separate := &Translation{Traces: set, Normal: tr.Normal, Failure: make([]*portfolio.Partition, len(set))}
	for i, trc := range set {
		if separate.Failure[i], err = portfolio.Translate(trc, normal, cfg.Commitment.Theta); err != nil {
			t.Fatal(err)
		}
	}
	plan := func(t0 *Translation) []byte {
		cons, err := f.Consolidate(ctx, t0)
		if err != nil {
			t.Fatal(err)
		}
		fails, err := f.PlanForFailures(ctx, t0, cons)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal([]any{cons.Plan, fails})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if shared, apart := plan(tr), plan(separate); !bytes.Equal(shared, apart) {
		t.Errorf("sharing the normal partition changed the plan:\nshared %s\n apart %s", shared, apart)
	}
}
