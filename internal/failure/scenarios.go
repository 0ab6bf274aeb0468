package failure

// Scenario-class failure planning: beyond one-at-a-time server removal
// (Analyze) and brute-force k-combinations (AnalyzeMulti), shared pools
// fail in correlated groups — a rack, a zone, a power feed — and the
// survivors of a correlated loss can cascade past their degradation
// ceiling. AnalyzeScenarios evaluates an explicit list of named
// scenarios, each a concrete failed-server set with optional cascade
// closure and a per-scenario θ commitment override (maintenance
// windows, degraded-pool operation), and scores every outcome with
// per-application revenue economics so the report ranks scenarios by
// expected revenue at risk. This file also holds the sweep engine all
// three entry points run on.

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"time"

	"ropus/internal/checkpoint"
	"ropus/internal/obslog"
	"ropus/internal/parallel"
	"ropus/internal/placement"
	"ropus/internal/robust"
	"ropus/internal/telemetry"
)

// unitSpec is the one journal unit every failure sweep files its
// records (MultiScenario values) under. Journals written before the
// sweeps were unified also hold "failure.scenario" and "failure.multi"
// records of other types; nothing looks those up any more, so a resumed
// old journal recomputes those scenarios. Do not reuse those names.
const unitSpec = "failure.scenario_spec"

// DefaultCascadeRounds bounds a cascade closure that does not set its
// own MaxRounds. The closure also terminates unconditionally: every
// round must fail at least one more server, so rounds never exceed the
// surviving-server count.
const DefaultCascadeRounds = 4

// ScenarioSpec names one concrete failure scenario: a set of servers
// lost together, with optional cascade closure and commitment override.
// Specs are produced by the scenario DSL (internal/scenario) or built
// directly.
type ScenarioSpec struct {
	// Name identifies the scenario in reports and checkpoint records.
	Name string
	// Servers is the initially failed server set (IDs from the
	// placement problem).
	Servers []string
	// Theta, when > 0, overrides the pool's CoS2 resource access
	// probability for the survivors — the degraded commitment a pool
	// honours during a maintenance window. 0 keeps the pool default.
	Theta float64
	// Cascade enables the overload closure: load evacuated from failed
	// servers is spread deterministically over the survivors, any
	// survivor pushed past its overload threshold fails too, and the
	// process repeats to a fixed point (bounded by MaxRounds).
	Cascade bool
	// MaxRounds bounds the cascade closure; 0 selects
	// DefaultCascadeRounds. Ignored unless Cascade is set.
	MaxRounds int
	// OverloadFactor scales the overload threshold: a survivor fails
	// when the slot-wise peak of its assigned demands exceeds
	// capacity * OverloadFactor. 0 selects 1.0. Ignored unless Cascade.
	OverloadFactor float64
	// Probability weights the scenario's revenue at risk into its
	// expected value; 0 selects 1.
	Probability float64
}

// normalized returns the spec with defaults filled in; Validate
// accepts only the normalized form's invariants.
func (s ScenarioSpec) normalized() ScenarioSpec {
	if s.MaxRounds == 0 {
		s.MaxRounds = DefaultCascadeRounds
	}
	if s.OverloadFactor == 0 {
		s.OverloadFactor = 1
	}
	if s.Probability == 0 {
		s.Probability = 1
	}
	return s
}

// Validate checks one spec against the problem's server list.
func (s ScenarioSpec) Validate(serverIDs map[string]int) error {
	if s.Name == "" {
		return errors.New("failure: scenario spec needs a name")
	}
	if len(s.Servers) == 0 {
		return fmt.Errorf("failure: scenario %q has no servers", s.Name)
	}
	seen := make(map[string]bool, len(s.Servers))
	for _, id := range s.Servers {
		if _, ok := serverIDs[id]; !ok {
			return fmt.Errorf("failure: scenario %q names unknown server %q", s.Name, id)
		}
		if seen[id] {
			return fmt.Errorf("failure: scenario %q lists server %q twice", s.Name, id)
		}
		seen[id] = true
	}
	if s.Theta < 0 || s.Theta > 1 {
		return fmt.Errorf("failure: scenario %q theta %v outside [0, 1]", s.Name, s.Theta)
	}
	if s.MaxRounds < 0 {
		return fmt.Errorf("failure: scenario %q MaxRounds %d < 0", s.Name, s.MaxRounds)
	}
	if s.OverloadFactor < 0 {
		return fmt.Errorf("failure: scenario %q OverloadFactor %v < 0", s.Name, s.OverloadFactor)
	}
	if s.Probability < 0 || s.Probability > 1 {
		return fmt.Errorf("failure: scenario %q probability %v outside [0, 1]", s.Name, s.Probability)
	}
	return nil
}

// fold mixes the spec's result-determining fields into a checkpoint
// key. Name is included: it appears in the emitted scenario record, so
// a record replayed under a different name would not be byte-identical.
func (s ScenarioSpec) fold(h *checkpoint.Hasher) {
	h.String(s.Name).Int(int64(len(s.Servers)))
	for _, id := range s.Servers {
		h.String(id)
	}
	h.Float(s.Theta).Bool(s.Cascade).Int(int64(s.MaxRounds)).Float(s.OverloadFactor)
}

// AppValue is one application's economics: the revenue it earns per
// hour when serving normally, and the contractual penalty per hour of
// degraded or lost service.
type AppValue struct {
	RevenuePerHour float64 `json:"revenuePerHour"`
	PenaltyPerHour float64 `json:"penaltyPerHour"`
}

// Economics maps applications to their revenue/penalty values, with
// pool-wide defaults for apps not listed. The zero value prices every
// app at zero, which disables ranking but never errors.
type Economics struct {
	DefaultRevenuePerHour float64             `json:"defaultRevenuePerHour"`
	DefaultPenaltyPerHour float64             `json:"defaultPenaltyPerHour"`
	PerApp                map[string]AppValue `json:"apps,omitempty"`
}

// For returns the economics of one application.
func (e *Economics) For(appID string) AppValue {
	if e == nil {
		return AppValue{}
	}
	if v, ok := e.PerApp[appID]; ok {
		return v
	}
	return AppValue{RevenuePerHour: e.DefaultRevenuePerHour, PenaltyPerHour: e.DefaultPenaltyPerHour}
}

// Validate rejects non-finite or negative values.
func (e *Economics) Validate() error {
	if e == nil {
		return nil
	}
	check := func(name string, v float64) error {
		if v != v || v < 0 || v > 1e18 {
			return fmt.Errorf("failure: economics %s %v is not a finite non-negative value", name, v)
		}
		return nil
	}
	if err := check("defaultRevenuePerHour", e.DefaultRevenuePerHour); err != nil {
		return err
	}
	if err := check("defaultPenaltyPerHour", e.DefaultPenaltyPerHour); err != nil {
		return err
	}
	for id, v := range e.PerApp {
		if err := check("revenuePerHour for "+id, v.RevenuePerHour); err != nil {
			return err
		}
		if err := check("penaltyPerHour for "+id, v.PenaltyPerHour); err != nil {
			return err
		}
	}
	return nil
}

// AppRisk is one application's contribution to a scenario's revenue at
// risk.
type AppRisk struct {
	AppID string `json:"appId"`
	// AtRisk is the per-hour value at risk: revenue + penalty when the
	// scenario is unabsorbable (or inconclusive, as an upper bound),
	// the degradation penalty alone when the survivors absorb it.
	AtRisk float64 `json:"atRisk"`
}

// ScoreScenario prices one scenario outcome: each affected application
// risks its full revenue plus penalty when the scenario is infeasible
// or inconclusive (service down — inconclusive scores as the upper
// bound), and the degradation penalty alone when the survivors absorb
// it under failure-mode QoS. The per-app breakdown sums exactly to the
// returned total (same operations, same order), which is the revenue-
// conservation invariant the property suite pins.
func ScoreScenario(affectedApps []string, feasible bool, econ *Economics) (total float64, perApp []AppRisk) {
	perApp = make([]AppRisk, 0, len(affectedApps))
	for _, id := range affectedApps {
		v := econ.For(id)
		atRisk := v.PenaltyPerHour
		if !feasible {
			atRisk = v.RevenuePerHour + v.PenaltyPerHour
		}
		perApp = append(perApp, AppRisk{AppID: id, AtRisk: atRisk})
		total += atRisk
	}
	return total, perApp
}

// AnalyzeScenarios evaluates a list of named failure scenarios against
// the base plan: correlated domain losses, cascades and maintenance
// windows compiled by the scenario DSL (or built directly). Each
// scenario removes its failed set, applies the cascade closure when
// requested, switches the affected applications to failure-mode QoS and
// re-consolidates the survivors — under the scenario's θ override when
// set. Economics (nil prices everything at zero) score each outcome
// into RevenueAtRisk/ExpectedRevenueAtRisk; scoring happens here, after
// the sweep and outside the checkpointed verdict, so re-pricing a
// journal does not invalidate it.
//
// Degradation mirrors AnalyzeMulti: errored scenarios are recorded
// (Err and ErrText set) and skipped, cancellation truncates at a
// scenario boundary, and only an all-error sweep fails. Results are
// byte-identical at every worker count and across checkpoint resumes.
func AnalyzeScenarios(ctx context.Context, in Input, basePlan *placement.Plan, specs []ScenarioSpec, econ *Economics) (report *MultiReport, err error) {
	defer robust.Recover("failure.AnalyzeScenarios", &err)
	if err := validate(in, basePlan); err != nil {
		return nil, err
	}
	if len(specs) == 0 {
		return nil, errors.New("failure: no scenarios to analyze")
	}
	if err := econ.Validate(); err != nil {
		return nil, err
	}
	serverIdx := serverIndex(in.Problem)
	seenName := make(map[string]bool, len(specs))
	for _, s := range specs {
		if err := s.normalized().Validate(serverIdx); err != nil {
			return nil, err
		}
		if seenName[s.Name] {
			return nil, fmt.Errorf("failure: duplicate scenario name %q", s.Name)
		}
		seenName[s.Name] = true
	}
	report, err = sweep(ctx, in, basePlan, "failure.analyze_scenarios", specs,
		telemetry.Int("scenarios", len(specs)),
		telemetry.Int("servers", len(in.Problem.Servers)))
	if err != nil {
		return nil, err
	}
	// Price the verdicts. Inconclusive scenarios score as infeasible —
	// the conservative upper bound — but stay excluded from SparesNeeded.
	for i := range report.Scenarios {
		sc := &report.Scenarios[i]
		sc.Probability = specs[i].normalized().Probability
		sc.RevenueAtRisk, sc.AppRisk = ScoreScenario(sc.AffectedApps, sc.Feasible && sc.Err == nil, econ)
		sc.ExpectedRevenueAtRisk = sc.Probability * sc.RevenueAtRisk
		report.TotalExpectedRevenueAtRisk += sc.ExpectedRevenueAtRisk
	}
	return report, nil
}

// serverIndex maps the problem's server IDs to their pool positions.
func serverIndex(p *placement.Problem) map[string]int {
	idx := make(map[string]int, len(p.Servers))
	for i, s := range p.Servers {
		idx[s.ID] = i
	}
	return idx
}

// sweep is the one failure sweep behind Analyze, AnalyzeMulti and
// AnalyzeScenarios, which differ only in the specs they generate and in
// how they view the result. in and basePlan are already validated; name
// is the entry point's span and log record name. Specs run in input
// order on the worker pool, each through the journaled retry cell (one
// record per clean, complete verdict, filed under unitSpec and the
// spec's fold — a server-loss spec and a user spec with the same name
// and servers are the same computation). The report holds the
// contiguous completed prefix: an errored scenario is recorded
// inconclusive and the sweep continues, cancellation truncates at a
// scenario boundary, and only an all-errored sweep fails.
func sweep(ctx context.Context, in Input, basePlan *placement.Plan, name string, specs []ScenarioSpec, attrs ...telemetry.Attr) (*MultiReport, error) {
	h := telemetry.OrNop(in.Hooks)
	ctx, span := telemetry.StartSpanCtx(ctx, in.Hooks, name, attrs...)
	defer span.End()
	scenarioC := h.Counter("failure_scenarios_total")
	infeasibleC := h.Counter("failure_infeasible_scenarios_total")
	errorC := h.Counter("failure_scenario_errors_total")
	cascadeC := h.Counter("failure_cascade_failures_total")
	scenarioSecs := h.Histogram("failure_scenario_seconds", nil)
	cell := checkpoint.Cell{
		Journal: in.Journal,
		Unit:    unitSpec,
		Retry:   in.Retry,
		Hooks:   in.Hooks,
		Replays: "failure_scenarios_replayed_total",
	}
	serverIdx := serverIndex(in.Problem)

	// Results land in spec order; ForEach's contiguous-prefix contract
	// gives the parallel sweep the sequential one's truncation semantics.
	scenarios := make([]MultiScenario, len(specs))
	scenarioErrs := make([]error, len(specs))
	done := parallel.ForEach(ctx, in.Workers, len(specs), func(i int) {
		spec := specs[i].normalized()
		hash := checkpoint.NewHasher()
		spec.fold(hash)
		start := time.Now()
		attempts := 0
		sc, stats, replayed, err := checkpoint.Memo(ctx, cell, hash.Sum(), spec.Name,
			func(attemptCtx context.Context) (MultiScenario, error) {
				attempts++
				sc, err := analyzeSpec(attemptCtx, in, basePlan, spec, serverIdx)
				// Stamped per attempt so the journaled record carries them.
				sc.Attempts, sc.Recovered = attempts, err == nil && attempts > 1
				return sc, err
			})
		scenarioC.Inc()
		if !replayed {
			sc.GaveUp = stats.GaveUp
			cascadeC.Add(int64(len(sc.CascadeAdded)))
			scenarioSecs.Observe(time.Since(start).Seconds())
			// Debug, not Info: the parallel sweep completes scenarios in
			// nondeterministic order, which a golden log stream cannot pin.
			obslog.From(ctx).DebugContext(ctx, "failure.scenario",
				slog.String("scenario", spec.Name),
				slog.String("failed_server", sc.Key()),
				slog.Bool("feasible", sc.Feasible),
				slog.Int("attempts", sc.Attempts))
		}
		scenarios[i], scenarioErrs[i] = sc, err
	})

	report := &MultiReport{Truncated: done < len(specs)}
	errored := 0
	for i := 0; i < done; i++ {
		sc := scenarios[i]
		if err := scenarioErrs[i]; err != nil {
			// Degrade: the remaining scenarios are independent analyses;
			// one bad solver run must not cost the whole report. An
			// attempt cut by its deadline may have returned a verdict;
			// an inconclusive scenario keeps only its identity.
			sc.Feasible, sc.Plan, sc.Servers, sc.Recovered = false, nil, nil, false
			sc.Err = fmt.Errorf("failure: scenario %q: %w", sc.Name, err)
			sc.ErrText = sc.Err.Error()
			errorC.Inc()
			errored++
		} else if !sc.Feasible {
			infeasibleC.Inc()
			report.SparesNeeded = true
		}
		report.Scenarios = append(report.Scenarios, sc)
	}
	span.SetAttr(
		telemetry.Int("scenarios", len(report.Scenarios)),
		telemetry.Int("errors", errored),
		telemetry.Bool("spare_needed", report.SparesNeeded),
		telemetry.Bool("truncated", report.Truncated))
	if errored > 0 && errored == len(report.Scenarios) {
		return nil, fmt.Errorf("failure: every scenario failed to evaluate: %w", errors.Join(report.Errors()...))
	}
	obslog.From(ctx).InfoContext(ctx, name,
		slog.Int("scenarios", len(report.Scenarios)),
		slog.Int("errors", errored),
		slog.Bool("spare_needed", report.SparesNeeded),
		slog.Bool("truncated", report.Truncated))
	return report, nil
}

// analyzeSpec evaluates one scenario: cascade closure, the
// "failure.scenario" fault injection point (keyed by the spec's name),
// then the reduced re-consolidation. The returned scenario carries its
// identity (failed servers, affected apps) even when the analysis
// errors. ctx is the (possibly deadline-bounded) attempt context.
func analyzeSpec(ctx context.Context, in Input, basePlan *placement.Plan, spec ScenarioSpec, serverIdx map[string]int) (MultiScenario, error) {
	p := in.Problem
	failed := make(map[int]bool, len(spec.Servers))
	for _, id := range spec.Servers {
		failed[serverIdx[id]] = true
	}
	scenario := MultiScenario{Name: spec.Name, Theta: spec.Theta}
	if spec.Cascade {
		added, rounds := cascadeClosure(in, basePlan, failed, spec.MaxRounds, spec.OverloadFactor)
		scenario.CascadeRounds = rounds
		for _, s := range added {
			scenario.CascadeAdded = append(scenario.CascadeAdded, p.Servers[s].ID)
			failed[s] = true
		}
	}
	for i := range p.Servers {
		if failed[i] {
			scenario.FailedServers = append(scenario.FailedServers, p.Servers[i].ID)
		}
	}
	var affected []int // ascending: Assignment is indexed by app
	for app, srv := range basePlan.Assignment {
		if failed[srv] {
			affected = append(affected, app)
			scenario.AffectedApps = append(scenario.AffectedApps, p.Apps[app].ID)
		}
	}

	if in.Inject != nil {
		if err := in.Inject.Hit("failure.scenario", spec.Name).Wait(ctx); err != nil {
			return scenario, err
		}
	}

	if len(p.Servers) <= len(failed) {
		return scenario, nil // nothing survives: infeasible, not an error
	}
	plan, servers, err := consolidateSurvivors(ctx, in, basePlan, failed, affected, spec.Theta)
	if err != nil {
		return scenario, err
	}
	if plan != nil {
		scenario.Feasible = true
		scenario.Plan = plan
		scenario.Servers = servers
	}
	return scenario, nil
}

// cascadeClosure computes the deterministic overload fixed point: apps
// on failed servers evacuate round-robin (in app order, pool order of
// survivors — the same rule that seeds the re-consolidation search),
// switching to their failure-mode translation; any survivor whose
// slot-wise peak aggregate demand then exceeds capacity * factor fails
// too, and the process repeats. Every round must fail at least one new
// server, so the closure terminates within min(maxRounds, survivors)
// rounds regardless of input. The returned additions are in pool order.
func cascadeClosure(in Input, basePlan *placement.Plan, failed map[int]bool, maxRounds int, factor float64) (added []int, rounds int) {
	p := in.Problem
	down := make(map[int]bool, len(failed))
	for s := range failed {
		down[s] = true
	}
	for rounds = 0; rounds < maxRounds; rounds++ {
		var survivors []int
		for i := range p.Servers {
			if !down[i] {
				survivors = append(survivors, i)
			}
		}
		if len(survivors) == 0 {
			return added, rounds
		}
		// Deterministic evacuation: app index order, survivors in pool
		// order, the same round-robin rule that seeds the re-consolidation
		// search. Residents keep their normal-mode workload; apps from
		// failed servers arrive with their failure-mode one.
		slots := len(p.Apps[0].Workload.CoS1)
		load := make(map[int][]float64, len(survivors))
		for _, s := range survivors {
			load[s] = make([]float64, slots)
		}
		next := 0
		for appIdx, srv := range basePlan.Assignment {
			w, target := p.Apps[appIdx].Workload, srv
			if down[srv] {
				w = in.FailureApps[appIdx].Workload
				target = survivors[next%len(survivors)]
				next++
			}
			agg := load[target]
			for i := 0; i < slots && i < len(w.CoS1); i++ {
				agg[i] += w.CoS1[i] + w.CoS2[i]
			}
		}
		// All overloaded survivors fail simultaneously — membership in the
		// round's casualty set depends only on the round's starting state,
		// never on evaluation order.
		var overloaded []int
		for _, s := range survivors {
			limit := p.Servers[s].Capacity() * factor
			for _, v := range load[s] {
				if v > limit {
					overloaded = append(overloaded, s)
					break
				}
			}
		}
		if len(overloaded) == 0 {
			return added, rounds
		}
		for _, s := range overloaded {
			down[s] = true
		}
		added = append(added, overloaded...)
		sort.Ints(added)
	}
	return added, rounds
}

// consolidateSurvivors builds the reduced problem — failed servers
// removed, affected applications on their failure-mode translation,
// optional θ override — and runs the consolidation search from the
// deterministic evacuation seed: unaffected applications stay put,
// affected ones are spread round-robin over the survivors, letting the
// genetic search find real homes. A nil plan with a nil error means the
// survivors cannot absorb the failure.
func consolidateSurvivors(ctx context.Context, in Input, basePlan *placement.Plan, failed map[int]bool, affected []int, thetaOverride float64) (plan *placement.Plan, servers []placement.Server, err error) {
	p := in.Problem
	isAffected := make(map[int]bool, len(affected))
	for _, a := range affected {
		isAffected[a] = true
	}
	apps := make([]placement.App, len(p.Apps))
	for i := range p.Apps {
		if isAffected[i] {
			apps[i] = in.FailureApps[i]
		} else {
			apps[i] = p.Apps[i]
		}
	}
	servers = make([]placement.Server, 0, len(p.Servers)-len(failed))
	oldToNew := make([]int, len(p.Servers))
	for i, s := range p.Servers {
		if failed[i] {
			oldToNew[i] = -1
			continue
		}
		oldToNew[i] = len(servers)
		servers = append(servers, s)
	}
	commitment := p.Commitment
	if thetaOverride > 0 {
		commitment.Theta = thetaOverride
	}
	reduced := &placement.Problem{
		Apps:          apps,
		Servers:       servers,
		Commitment:    commitment,
		SlotsPerDay:   p.SlotsPerDay,
		DeadlineSlots: p.DeadlineSlots,
		Tolerance:     p.Tolerance,
		Hooks:         in.Hooks,
		Inject:        in.Inject,
		// The shared simulation cache stays valid across scenarios — and
		// across θ overrides, because the commitment is part of the
		// cached entries' content hash.
		Cache: p.Cache,
	}
	initial := make(placement.Assignment, len(apps))
	next := 0
	for i, old := range basePlan.Assignment {
		if mapped := oldToNew[old]; mapped >= 0 {
			initial[i] = mapped
			continue
		}
		initial[i] = next % len(servers)
		next++
	}
	plan, err = placement.Consolidate(ctx, reduced, initial, in.GA)
	if errors.Is(err, placement.ErrNoFeasible) {
		return nil, nil, nil // infeasible, not an error
	}
	if err != nil {
		return nil, nil, err
	}
	return plan, servers, nil
}
