package core

import (
	"context"
	"errors"
	"testing"

	"ropus/internal/faultinject"
)

func TestCancelTranslate(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reqs := Requirements{Default: caseStudyRequirement()}
	if _, err := f.Translate(ctx, smallFleet(t), reqs); !errors.Is(err, context.Canceled) {
		t.Errorf("error should wrap context.Canceled, got %v", err)
	}
}

func TestCancelRunDegradesFailureSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := testConfig()
	// One sweep worker: the plan uses two servers, and with a worker per
	// scenario both are dispatched before the cancel below is observed,
	// which makes the report complete instead of truncated on any host
	// with a second core.
	cfg.Workers = 1
	// Cancel the moment the failure sweep starts its first scenario:
	// translation and consolidation have finished, so Run still returns
	// a full report whose failure section is a truncated prefix.
	cfg.Inject = faultinject.Func(func(point, key string) faultinject.Outcome {
		if point == "failure.scenario" {
			cancel()
		}
		return faultinject.Outcome{}
	})
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reqs := Requirements{Default: caseStudyRequirement()}
	report, err := f.Run(ctx, smallFleet(t), reqs)
	if err != nil {
		t.Fatalf("cancelled pipeline should degrade, got %v", err)
	}
	if report.Consolidation == nil || !report.Consolidation.Plan.Feasible {
		t.Fatal("consolidation should have completed before the cancel")
	}
	if !report.Failures.Truncated {
		t.Error("failure sweep should be flagged Truncated")
	}
	var used []string // the sweep's scenarios, in its order
	for _, u := range report.Consolidation.Plan.Usages {
		if len(u.AppIDs) > 0 {
			used = append(used, u.Server.ID)
		}
	}
	got := report.Failures.Scenarios
	if len(got) >= len(used) {
		t.Fatalf("truncated sweep evaluated %d of %d scenarios", len(got), len(used))
	}
	for i, s := range got {
		if s.FailedServer != used[i] {
			t.Errorf("scenario %d is %q, want the contiguous prefix entry %q", i, s.FailedServer, used[i])
		}
	}
}

func TestChaosRunScenarioErrorSurfacesInReport(t *testing.T) {
	cfg := testConfig()
	cfg.Inject = faultinject.MustScript(1,
		faultinject.Rule{Point: "failure.scenario", Nth: 1})
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reqs := Requirements{Default: caseStudyRequirement()}
	report, err := f.Run(context.Background(), smallFleet(t), reqs)
	if err != nil {
		t.Fatalf("one errored scenario should not abort the pipeline: %v", err)
	}
	errs := report.Failures.Errors()
	if len(errs) != 1 || !errors.Is(errs[0], faultinject.ErrInjected) {
		t.Errorf("report should record exactly the injected scenario error, got %v", errs)
	}
}
