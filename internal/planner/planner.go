// Package planner implements the long-term side of Figure 1's capacity
// management spectrum: capacity planning. Where the workload placement
// service answers "how do I run this month's workloads on the servers I
// have", the planner answers "when will I need more servers, so that
// procurement can start early enough".
//
// It projects each application's demand forward (per-slot linear trend
// via trace.ForecastWeeks, optionally combined with business-forecast
// growth factors per application), re-runs the consolidation for each
// future horizon step, and reports the number of servers needed over
// time together with the first step at which the current pool size is
// exceeded.
package planner

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"strconv"
	"time"

	"ropus/internal/checkpoint"
	"ropus/internal/core"
	"ropus/internal/faultinject"
	"ropus/internal/obslog"
	"ropus/internal/placement"
	"ropus/internal/resilience"
	"ropus/internal/robust"
	"ropus/internal/telemetry"
	"ropus/internal/trace"
)

// unitStep is the checkpoint-journal unit for completed horizon steps.
const unitStep = "planner.step"

// Config parameterizes a planning run.
type Config struct {
	// Framework performs translation and consolidation at each step.
	Framework *core.Framework
	// Requirements are the per-application QoS requirements.
	Requirements core.Requirements
	// HorizonWeeks is how far to look ahead.
	HorizonWeeks int
	// StepWeeks is the granularity of the projection (evaluate every
	// StepWeeks weeks); must divide HorizonWeeks.
	StepWeeks int
	// Growth holds optional business-forecast multipliers per
	// application, applied on top of the observed trend linearly over
	// the horizon: a factor of 1.5 means the application is expected to
	// reach 150% of trend by the end of the horizon.
	Growth map[string]float64
	// PoolServers is the number of servers currently in the pool; the
	// planner reports the first step needing more than this.
	PoolServers int
	// Hooks receives planning telemetry (per-step spans and timings);
	// nil disables it. Note the Framework carries its own hooks for the
	// translation and consolidation it performs.
	Hooks telemetry.Hooks
	// Inject is the test-only fault injector consulted at the
	// "planner.step" point (keyed by weeks ahead, "0" for the baseline);
	// nil (the production default) injects nothing.
	Inject faultinject.Injector
	// Retry re-attempts a horizon step whose consolidation failed with a
	// transient error (or whose per-attempt deadline expired) before the
	// run gives up on it. The zero value makes a single attempt.
	Retry resilience.Policy
	// Journal, when non-nil, checkpoints every completed horizon step
	// (keyed by weeks ahead) and replays steps already journaled by a
	// resumed run; replay is bit-exact. Append failures are counted
	// (checkpoint_append_errors_total) and otherwise ignored.
	Journal *checkpoint.Journal
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Framework == nil {
		return errors.New("planner: nil framework")
	}
	if err := c.Requirements.Validate(); err != nil {
		return err
	}
	if c.HorizonWeeks <= 0 {
		return fmt.Errorf("planner: HorizonWeeks %d <= 0", c.HorizonWeeks)
	}
	if c.StepWeeks <= 0 || c.HorizonWeeks%c.StepWeeks != 0 {
		return fmt.Errorf("planner: StepWeeks %d must be positive and divide HorizonWeeks %d",
			c.StepWeeks, c.HorizonWeeks)
	}
	for id, g := range c.Growth {
		if g < 0 {
			return fmt.Errorf("planner: negative growth %v for %q", g, id)
		}
	}
	if c.PoolServers < 0 {
		return fmt.Errorf("planner: PoolServers %d < 0", c.PoolServers)
	}
	return c.Retry.Validate()
}

// Step is the consolidation outcome for one future horizon step.
type Step struct {
	// WeeksAhead is the number of weeks into the future.
	WeeksAhead int
	// Feasible reports whether the projected demand could be placed at
	// all. When false, at least one application no longer fits any
	// single server of the configured size: the pool needs bigger
	// servers, not just more of them.
	Feasible bool
	// Servers is the number of servers the placement service reports as
	// needed for the projected demand (0 when not Feasible).
	Servers int
	// CRequ is the sum of per-server required capacities (0 when not
	// Feasible).
	CRequ float64
	// CPeak is the sum of per-application peak allocations.
	CPeak float64
}

// Plan is the outcome of a capacity planning run.
type Plan struct {
	// Baseline is the consolidation on the observed (unprojected)
	// traces.
	Baseline Step
	// Steps holds one entry per horizon step, nearest first.
	Steps []Step
	// ExhaustedAtWeeks is the first horizon step (weeks ahead) at which
	// more than PoolServers servers are needed; 0 when the pool
	// suffices for the whole horizon.
	ExhaustedAtWeeks int
	// Truncated reports that the run was cancelled before every horizon
	// step was evaluated; Steps holds the completed prefix (nearest
	// horizons first, which are also the most actionable ones).
	Truncated bool
}

// Run projects the traces and consolidates at every horizon step.
// Cancelling ctx stops the projection at the next step boundary and
// returns the completed prefix of steps with Plan.Truncated set and a
// nil error; the baseline must complete for any plan to be returned.
func Run(ctx context.Context, cfg Config, traces trace.Set) (plan *Plan, err error) {
	defer robust.Recover("planner.Run", &err)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := traces.Validate(); err != nil {
		return nil, err
	}
	if traces[0].Weeks() < 2 {
		return nil, fmt.Errorf("planner: need >= 2 weeks of history, have %d", traces[0].Weeks())
	}
	for id := range cfg.Growth {
		if traces.ByID(id) == nil {
			return nil, fmt.Errorf("planner: growth factor for unknown app %q", id)
		}
	}

	h := telemetry.OrNop(cfg.Hooks)
	ctx, span := telemetry.StartSpanCtx(ctx, cfg.Hooks, "planner.run",
		telemetry.Int("horizon_weeks", cfg.HorizonWeeks),
		telemetry.Int("step_weeks", cfg.StepWeeks))
	defer span.End()
	obslog.From(ctx).InfoContext(ctx, "planner.run",
		slog.Int("horizon_weeks", cfg.HorizonWeeks),
		slog.Int("step_weeks", cfg.StepWeeks))
	stepsC := h.Counter("planner_steps_total")
	truncatedC := h.Counter("planner_truncated_total")
	stepSecs := h.Histogram("planner_step_seconds", nil)
	cell := checkpoint.Cell{
		Journal: cfg.Journal,
		Unit:    unitStep,
		Retry:   cfg.Retry,
		Hooks:   cfg.Hooks,
		Replays: "planner_steps_replayed_total",
	}
	// evaluate runs one horizon step (0 is the baseline) through the
	// journaled retry cell: replayed when a prior run checkpointed it,
	// otherwise projected, consolidated and journaled.
	evaluate := func(ctx context.Context, ahead int) (Step, bool, error) {
		start := time.Now()
		step, _, replayed, err := checkpoint.Memo(ctx, cell,
			checkpoint.NewHasher().Int(int64(ahead)).Sum(), strconv.Itoa(ahead),
			func(attemptCtx context.Context) (Step, error) {
				return consolidateStep(attemptCtx, cfg, traces, ahead)
			})
		if err != nil {
			return Step{}, false, err
		}
		stepsC.Inc()
		if !replayed {
			stepSecs.Observe(time.Since(start).Seconds())
		}
		return step, replayed, nil
	}

	baseline, _, err := evaluate(ctx, 0)
	if err != nil {
		return nil, fmt.Errorf("planner: baseline: %w", err)
	}
	plan = &Plan{Baseline: baseline}
	if !baseline.Feasible {
		return nil, errors.New("planner: current demand is already unplaceable")
	}

	for ahead := cfg.StepWeeks; ahead <= cfg.HorizonWeeks; ahead += cfg.StepWeeks {
		if ctx.Err() != nil {
			plan.Truncated = true
			break
		}
		stepCtx, stepSpan := telemetry.StartSpanCtx(ctx, cfg.Hooks, "planner.step",
			telemetry.Int("weeks_ahead", ahead))
		step, replayed, err := evaluate(stepCtx, ahead)
		if err != nil {
			stepSpan.End()
			if ctx.Err() != nil {
				// Cancellation surfaced through the consolidation stack:
				// degrade to the completed prefix of steps.
				plan.Truncated = true
				break
			}
			return nil, fmt.Errorf("planner: step +%dw: %w", ahead, err)
		}
		stepSpan.SetAttr(
			telemetry.Bool("feasible", step.Feasible),
			telemetry.Int("servers", step.Servers))
		stepSpan.End()
		if !replayed {
			obslog.From(ctx).InfoContext(ctx, "planner.step",
				slog.Int("weeks_ahead", ahead),
				slog.Bool("feasible", step.Feasible),
				slog.Int("servers", step.Servers))
		}
		plan.Steps = append(plan.Steps, step)
		exhausted := !step.Feasible || (cfg.PoolServers > 0 && step.Servers > cfg.PoolServers)
		if plan.ExhaustedAtWeeks == 0 && exhausted {
			plan.ExhaustedAtWeeks = ahead
		}
	}
	if plan.Truncated {
		truncatedC.Inc()
	}
	span.SetAttr(
		telemetry.Int("exhausted_at_weeks", plan.ExhaustedAtWeeks),
		telemetry.Bool("truncated", plan.Truncated))
	return plan, nil
}

// projectSet builds the demand traces expected `ahead` weeks out: the
// trend forecast for the window ending at that point, scaled by the
// interpolated business growth factor.
func projectSet(cfg Config, traces trace.Set, ahead int) (trace.Set, error) {
	out := make(trace.Set, len(traces))
	progress := float64(ahead) / float64(cfg.HorizonWeeks)
	for i, tr := range traces {
		fc, err := trace.ForecastWeeks(tr, ahead)
		if err != nil {
			return nil, err
		}
		// Keep the evaluation window the same length as the history by
		// taking the last weeks of history+forecast.
		joined, err := tr.Concat(fc)
		if err != nil {
			return nil, err
		}
		window, err := joined.LastWeeks(tr.Weeks())
		if err != nil {
			return nil, err
		}
		factor := 1.0
		if g, ok := cfg.Growth[tr.AppID]; ok {
			factor = 1 + (g-1)*progress
		}
		out[i], err = trace.ApplyGrowth(window, factor)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// consolidateStep projects the observed traces `ahead` weeks out (0
// keeps them as observed), then translates and consolidates them. A
// placement that fits on no pool configuration is reported as an
// infeasible step, not an error. ctx is the (possibly deadline-bounded)
// attempt context.
func consolidateStep(ctx context.Context, cfg Config, traces trace.Set, ahead int) (Step, error) {
	if cfg.Inject != nil {
		if err := cfg.Inject.Hit("planner.step", strconv.Itoa(ahead)).Wait(ctx); err != nil {
			return Step{}, err
		}
	}
	if ahead > 0 {
		var err error
		if traces, err = projectSet(cfg, traces, ahead); err != nil {
			return Step{}, fmt.Errorf("project: %w", err)
		}
	}
	translation, err := cfg.Framework.Translate(ctx, traces, cfg.Requirements)
	if err != nil {
		return Step{}, err
	}
	step := Step{WeeksAhead: ahead, CPeak: translation.CPeakTotal()}
	cons, err := cfg.Framework.Consolidate(ctx, translation)
	if errors.Is(err, placement.ErrNoFeasible) {
		return step, nil
	}
	if err != nil {
		return Step{}, err
	}
	step.Feasible = true
	step.Servers = cons.ServersUsed()
	step.CRequ = cons.CRequTotal()
	return step, nil
}
