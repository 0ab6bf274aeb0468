package planner

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"ropus/internal/faultinject"
	"ropus/internal/resilience"
	"ropus/internal/telemetry"
)

// TestAttemptDeadlineTruncatedStepRetried: the baseline's first
// required-capacity search is scripted slower than the attempt
// deadline. It runs in the GA's cancel-detached seeding, so the delay
// is not cut, and generation 0 finds the deadline passed and returns a
// Truncated plan with a nil error. The step must be retried, not
// accepted, and the plan must equal an undisturbed run's.
func TestAttemptDeadlineTruncatedStepRetried(t *testing.T) {
	set := fleet(t, 3)
	want, err := Run(context.Background(), validConfig(t), set)
	if err != nil {
		t.Fatal(err)
	}

	const deadline = 250 * time.Millisecond
	script := faultinject.MustScript(1,
		faultinject.Rule{Point: "sim.required_capacity", Nth: 1, Delay: 2 * deadline})
	reg := telemetry.NewRegistry()
	cfg := validConfig(t)
	cfg.Framework = injectingFramework(t, script)
	cfg.Hooks = telemetry.New(reg, nil)
	// The third attempt absorbs an undisturbed attempt that a loaded
	// host slows past the deadline; the result is the same either way.
	cfg.Retry = resilience.Policy{MaxAttempts: 3, AttemptTimeout: deadline}
	got, err := Run(context.Background(), cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	if fired := script.Fired("sim.required_capacity"); fired != 1 {
		t.Fatalf("slow search fired %d times, want 1", fired)
	}
	if retries := reg.Snapshot().Counters["resilience_retries_total"]; retries < 1 {
		t.Error("the step cut by its attempt deadline was accepted, not retried")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("plan after the retry differs from an undisturbed run:\n got %+v\nwant %+v", got, want)
	}
}

func TestCancelPlannerPartialPlan(t *testing.T) {
	cfg := validConfig(t) // horizon 4, step 2: baseline + steps at +2w, +4w
	set := fleet(t, 3)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel when the planner reaches the +4w step: the baseline and
	// the +2w step have completed, so the plan degrades to that prefix.
	cfg.Inject = faultinject.Func(func(point, key string) faultinject.Outcome {
		if point == "planner.step" && key == "4" {
			cancel()
		}
		return faultinject.Outcome{}
	})
	plan, err := Run(ctx, cfg, set)
	if err != nil {
		t.Fatalf("cancelled planning should degrade, got %v", err)
	}
	if !plan.Truncated {
		t.Error("cancelled plan should be flagged Truncated")
	}
	if len(plan.Steps) != 1 || plan.Steps[0].WeeksAhead != 2 {
		t.Errorf("want the completed +2w prefix, got %+v", plan.Steps)
	}
	if !plan.Baseline.Feasible {
		t.Error("baseline should have completed before the cancel")
	}
}

func TestCancelPlannerBeforeBaseline(t *testing.T) {
	cfg := validConfig(t)
	set := fleet(t, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Without a baseline there is no useful partial plan: the
	// cancellation surfaces as an error.
	if _, err := Run(ctx, cfg, set); !errors.Is(err, context.Canceled) {
		t.Errorf("error should wrap context.Canceled, got %v", err)
	}
}

func TestChaosPlannerStepInjectedError(t *testing.T) {
	cfg := validConfig(t)
	set := fleet(t, 3)
	// A scripted error at a horizon step (not the baseline, not a
	// cancellation) is a real failure and must abort with context.
	cfg.Inject = faultinject.MustScript(1,
		faultinject.Rule{Point: "planner.step", Key: "2"})
	_, err := Run(context.Background(), cfg, set)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Errorf("error should wrap faultinject.ErrInjected, got %v", err)
	}
}
