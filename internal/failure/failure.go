// Package failure implements R-Opus's failure-mode planning (paper
// section VI-C).
//
// Starting from a consolidated normal-mode plan, the planner removes one
// server at a time, switches the applications that were hosted on it to
// their failure-mode QoS translation, and re-runs the consolidation
// algorithm on the remaining servers. If every single-server failure can
// be absorbed this way, the pool needs no spare server: the affected
// applications can operate under their (typically weaker) failure QoS
// until the server is repaired. Realizing the new configuration requires
// a workload migration mechanism, which is outside the planner's scope.
package failure

import (
	"context"
	"errors"
	"fmt"

	"ropus/internal/checkpoint"
	"ropus/internal/faultinject"
	"ropus/internal/placement"
	"ropus/internal/resilience"
	"ropus/internal/robust"
	"ropus/internal/telemetry"
)

// Input is everything the planner needs beyond the base plan.
type Input struct {
	// Problem is the normal-mode consolidation problem the base plan
	// was computed for.
	Problem *placement.Problem
	// FailureApps holds the failure-mode translations, one per
	// application, aligned by index with Problem.Apps (same IDs).
	FailureApps []placement.App
	// GA configures the re-consolidation searches.
	GA placement.GAConfig
	// Hooks receives planning telemetry (scenario counts, timings and
	// per-scenario spans); nil disables it. It is also propagated to the
	// reduced consolidation problems each scenario solves.
	Hooks telemetry.Hooks
	// Inject is the test-only fault injector consulted at the
	// "failure.scenario" point (keyed by failed server ID, multi-failure
	// Key or scenario name) and propagated to the reduced consolidation
	// problems; nil (the production default) injects nothing.
	Inject faultinject.Injector
	// Workers bounds the number of scenarios analyzed concurrently: 0
	// selects GOMAXPROCS and 1 forces the sequential sweep. Scenario
	// order, per-scenario results and the Truncated/error semantics are
	// identical at every worker count (scenarios are independent
	// analyses; Problem.Cache, when set, keeps their results bit-exact
	// regardless of completion order).
	Workers int
	// Retry governs self-healing: a scenario whose analysis fails with a
	// transient error (resilience.Transient, or an expired per-attempt
	// deadline) is re-attempted under this policy before being recorded
	// inconclusive. The zero value makes a single attempt, preserving
	// the historical record-and-continue behaviour.
	Retry resilience.Policy
	// Journal, when non-nil, checkpoints every successfully analyzed
	// scenario and replays scenarios already journaled by a resumed run.
	// Replay is bit-exact, so a resumed sweep reports byte-identical
	// results. Journal write failures degrade gracefully: the scenario
	// result is kept, the failed append is counted
	// (checkpoint_append_errors_total) and the sweep continues — a lost
	// checkpoint only costs recompute on the next resume.
	Journal *checkpoint.Journal
}

// Validate checks the input's structural invariants.
func (in Input) Validate() error {
	if in.Problem == nil {
		return errors.New("failure: nil problem")
	}
	if err := in.Problem.Validate(); err != nil {
		return err
	}
	if len(in.FailureApps) != len(in.Problem.Apps) {
		return fmt.Errorf("failure: %d failure-mode apps for %d normal-mode apps",
			len(in.FailureApps), len(in.Problem.Apps))
	}
	for i, a := range in.FailureApps {
		if a.ID != in.Problem.Apps[i].ID {
			return fmt.Errorf("failure: failure-mode app %d is %q, want %q",
				i, a.ID, in.Problem.Apps[i].ID)
		}
		// Prepare (on this copy) returns at once for an app that already
		// carries its digest, so prepared traces are not walked again.
		if err := a.Prepare(); err != nil {
			return err
		}
	}
	if err := in.Retry.Validate(); err != nil {
		return err
	}
	return in.GA.Validate()
}

// Scenario is the outcome for the failure of one server.
type Scenario struct {
	// FailedServer is the server removed in this scenario.
	FailedServer string
	// AffectedApps are the applications that were hosted on it.
	AffectedApps []string
	// Feasible reports whether the affected applications could be
	// placed on the remaining servers under failure-mode QoS.
	Feasible bool
	// Plan is the re-consolidated plan when feasible; nil otherwise.
	// Server indexes in the plan refer to Servers below.
	Plan *placement.Plan
	// Servers is the reduced server list the plan was computed against.
	Servers []placement.Server
	// Attempts is how many analysis attempts the scenario took (1 when
	// the first try succeeded; 0 only for a scenario never started).
	Attempts int
	// Recovered reports a scenario that failed transiently and then
	// succeeded on a retry: the verdict is as trustworthy as any other,
	// but the recovery is worth surfacing next to gave-up scenarios.
	Recovered bool
	// GaveUp reports a scenario whose transient failures exhausted the
	// retry policy (true even for a single-attempt policy; false when
	// the sweep's cancellation, not the policy, stopped the attempts).
	GaveUp bool
	// Err records a scenario that could not be evaluated (solver error,
	// injected fault that exhausted the retry policy, ...). An errored
	// scenario proves nothing: Feasible is false but it does not count
	// toward SpareNeeded, because the failure was in the analysis, not
	// in the pool. Errored scenarios are never checkpointed, so a
	// resumed run re-attempts them.
	Err error `json:"-"`
	// ErrText mirrors Err for serialized reports (error values do not
	// survive JSON), so inconclusive scenarios stay diagnosable in serve
	// results and flight recordings.
	ErrText string `json:",omitempty"`
}

// Report aggregates all single-server failure scenarios.
type Report struct {
	Scenarios []Scenario
	// SpareNeeded is true when at least one failure was proven
	// unabsorbable by the remaining servers. Errored scenarios (Err set)
	// are inconclusive and do not set it.
	SpareNeeded bool
	// Truncated reports that the sweep was cancelled before every
	// scenario was evaluated; Scenarios holds the completed prefix.
	Truncated bool
}

// Errors returns the per-scenario errors recorded during the sweep, in
// scenario order (empty when every scenario evaluated cleanly).
func (r *Report) Errors() []error {
	var errs []error
	for _, s := range r.Scenarios {
		if s.Err != nil {
			errs = append(errs, s.Err)
		}
	}
	return errs
}

// Retries summarizes the sweep's self-healing: extra is the number of
// attempts beyond each scenario's first, recovered counts scenarios
// that succeeded after retrying, and gaveUp counts scenarios recorded
// inconclusive after exhausting the retry policy. gaveUp uses the
// per-scenario GaveUp record rather than inferring from Attempts, so a
// single-attempt policy's failures count and scenarios stopped by
// cancellation (not by the policy) do not.
func (r *Report) Retries() (extra, recovered, gaveUp int) {
	for _, s := range r.Scenarios {
		if s.Attempts > 1 {
			extra += s.Attempts - 1
		}
		if s.Recovered {
			recovered++
		}
		if s.GaveUp {
			gaveUp++
		}
	}
	return extra, recovered, gaveUp
}

// Analyze evaluates every single-server failure of the servers used by
// basePlan (removing an unused server is a non-event). The base plan
// must have been produced for in.Problem.
//
// It is the sweep engine (see sweep) run over one server-loss spec per
// used server, in pool order, with each result viewed as a Scenario.
// The sweep degrades gracefully: a scenario that cannot be evaluated is
// recorded with its Err and the sweep continues; only when every
// scenario errors does Analyze return a top-level error. Cancelling ctx
// stops the sweep at the next scenario boundary and returns the
// completed prefix with Report.Truncated set and a nil error.
func Analyze(ctx context.Context, in Input, basePlan *placement.Plan) (report *Report, err error) {
	defer robust.Recover("failure.Analyze", &err)
	if err := validate(in, basePlan); err != nil {
		return nil, err
	}
	multi, err := sweep(ctx, in, basePlan, "failure.analyze",
		combinationSpecs(in.Problem, usedServers(in.Problem, basePlan), 1),
		telemetry.Int("servers", len(in.Problem.Servers)))
	if err != nil {
		return nil, err
	}
	report = &Report{SpareNeeded: multi.SparesNeeded, Truncated: multi.Truncated}
	for _, s := range multi.Scenarios {
		report.Scenarios = append(report.Scenarios, Scenario{
			FailedServer: s.FailedServers[0],
			AffectedApps: s.AffectedApps,
			Feasible:     s.Feasible,
			Plan:         s.Plan,
			Servers:      s.Servers,
			Attempts:     s.Attempts,
			Recovered:    s.Recovered,
			GaveUp:       s.GaveUp,
			Err:          s.Err,
			ErrText:      s.ErrText,
		})
	}
	return report, nil
}

// validate checks what every sweep needs before it can enumerate
// scenarios: a sound input and a base plan that belongs to it.
func validate(in Input, basePlan *placement.Plan) error {
	if err := in.Validate(); err != nil {
		return err
	}
	if basePlan == nil {
		return errors.New("failure: nil base plan")
	}
	return basePlan.Assignment.Validate(in.Problem)
}

// usedServers lists, in pool order, the servers basePlan hosts at least
// one application on.
func usedServers(p *placement.Problem, basePlan *placement.Plan) []int {
	hosts := make([]bool, len(p.Servers))
	for _, srv := range basePlan.Assignment {
		hosts[srv] = true
	}
	var used []int
	for i, h := range hosts {
		if h {
			used = append(used, i)
		}
	}
	return used
}
