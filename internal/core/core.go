// Package core assembles the R-Opus composite framework (paper
// Figure 2): application owners specify per-application QoS requirements
// for normal and failure modes; the pool operator specifies resource
// access commitments for two classes of service; a QoS translation maps
// each application's demands onto the classes; and the workload
// placement service consolidates the translated workloads onto a small
// number of servers and reports whether single-server failures can be
// absorbed without a spare.
package core

import (
	"context"
	"errors"
	"fmt"
	"log/slog"

	"ropus/internal/checkpoint"
	"ropus/internal/failure"
	"ropus/internal/faultinject"
	"ropus/internal/obslog"
	"ropus/internal/placement"
	"ropus/internal/portfolio"
	"ropus/internal/qos"
	"ropus/internal/resilience"
	"ropus/internal/robust"
	"ropus/internal/sim"
	"ropus/internal/telemetry"
	"ropus/internal/topology"
	"ropus/internal/trace"
)

// Requirements maps applications to their QoS requirements. Apps not in
// PerApp use Default.
type Requirements struct {
	Default qos.Requirement
	PerApp  map[string]qos.Requirement
}

// For returns the requirement for an application.
func (r Requirements) For(appID string) qos.Requirement {
	if req, ok := r.PerApp[appID]; ok {
		return req
	}
	return r.Default
}

// Validate checks every requirement that can be handed out.
func (r Requirements) Validate() error {
	if err := r.Default.Validate(); err != nil {
		return fmt.Errorf("core: default requirement: %w", err)
	}
	for id, req := range r.PerApp {
		if err := req.Validate(); err != nil {
			return fmt.Errorf("core: requirement for %q: %w", id, err)
		}
	}
	return nil
}

// Config parameterizes a Framework.
type Config struct {
	// Commitment is the pool's CoS2 resource access commitment.
	Commitment qos.PoolCommitment
	// ServerCPUs is Z for every pool server (the case study uses
	// 16-way servers); ServerCapacityPerCPU is normally 1.
	ServerCPUs           int
	ServerCapacityPerCPU float64
	// GA configures the consolidation search.
	GA placement.GAConfig
	// Tolerance for required-capacity bisection (0 = default).
	Tolerance float64
	// Score selects the placement score model (zero value = paper's).
	Score placement.ScoreModel
	// Hooks receives pipeline telemetry (stage spans, GA and simulator
	// metrics); nil disables it. It is propagated to every stage:
	// translation, consolidation and failure planning.
	Hooks telemetry.Hooks
	// Inject is the test-only fault injector propagated to the placement
	// problems and failure sweeps the framework builds; nil (the
	// production default) injects nothing.
	Inject faultinject.Injector
	// Workers bounds how many failure scenarios are analyzed
	// concurrently: 0 selects GOMAXPROCS, 1 forces the sequential sweep.
	// Results are identical at every worker count.
	Workers int
	// CacheBytes bounds the framework's shared simulation cache, which
	// memoizes per-(server-shape, app-group) results across the base
	// consolidation, every failure scenario, and the capacity planner.
	// 0 selects the default bound (placement.DefaultSimCacheBytes);
	// negative disables the cache. Cached reuse is bit-exact, so results
	// do not depend on this setting.
	CacheBytes int64
	// Cache, when non-nil, is an externally owned simulation cache the
	// framework uses instead of building its own; CacheBytes is ignored.
	// A long-running host (the planning service) hands the same cache to
	// every framework it builds so jobs warm each other up.
	Cache *placement.SimCache
	// Retry is the self-healing policy applied to every failure scenario
	// the framework sweeps: transient analysis faults are re-attempted
	// under it before a scenario is recorded inconclusive. The zero value
	// makes a single attempt (the historical behaviour).
	Retry resilience.Policy
	// Journal, when non-nil, checkpoints completed failure scenarios so
	// an interrupted sweep can resume without recomputing them; see
	// failure.Input.Journal. With PartitionApps > 0 it also checkpoints
	// each solved placement partition.
	Journal *checkpoint.Journal
	// PartitionApps, when > 0, switches consolidation to the hierarchical
	// pool-of-pools search: the fleet is clustered into sub-pools of at
	// most this many applications, each solved independently (see
	// placement.ConsolidateHierarchical). 0 keeps the flat search.
	PartitionApps int
	// Topology, when non-nil and PartitionApps > 0, makes the
	// hierarchical stitch rack-aware.
	Topology *topology.Topology
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Commitment.Validate(); err != nil {
		return err
	}
	if c.ServerCPUs <= 0 {
		return fmt.Errorf("core: ServerCPUs %d <= 0", c.ServerCPUs)
	}
	if c.ServerCapacityPerCPU <= 0 {
		return fmt.Errorf("core: ServerCapacityPerCPU %v <= 0", c.ServerCapacityPerCPU)
	}
	if c.Tolerance < 0 {
		return fmt.Errorf("core: Tolerance %v < 0", c.Tolerance)
	}
	if err := c.Retry.Validate(); err != nil {
		return err
	}
	if c.PartitionApps < 0 {
		return fmt.Errorf("core: PartitionApps %d < 0", c.PartitionApps)
	}
	return c.GA.Validate()
}

// Framework is the R-Opus capacity self-management system.
type Framework struct {
	cfg Config
	// cache is the shared cross-run simulation cache every placement
	// problem the framework builds points at (nil when disabled).
	cache *placement.SimCache
}

// New builds a Framework from a validated configuration.
func New(cfg Config) (*Framework, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f := &Framework{cfg: cfg}
	switch {
	case cfg.Cache != nil:
		f.cache = cfg.Cache
	case cfg.CacheBytes >= 0:
		f.cache = placement.NewSimCache(cfg.CacheBytes)
	}
	return f, nil
}

// CacheStats snapshots the shared simulation cache's counters; the zero
// value is returned when the cache is disabled.
func (f *Framework) CacheStats() placement.CacheStats {
	if f.cache == nil {
		return placement.CacheStats{}
	}
	return f.cache.Stats()
}

// Translation is the output of the QoS translation stage: normal- and
// failure-mode partitions for every application, in trace order. An
// application whose two modes share one QoS has one partition:
// Failure[i] is Normal[i].
type Translation struct {
	Traces  trace.Set
	Normal  []*portfolio.Partition
	Failure []*portfolio.Partition

	// normalApps and failureApps are Normal and Failure as placement
	// applications, validated and digested once by Translate so that
	// consolidation and every failure sweep of the plan share them. A
	// hand-built Translation leaves them nil and is prepared on each
	// use instead (see apps). They describe the partitions as Translate
	// left them: build a new Translation rather than editing one.
	normalApps, failureApps []placement.App
}

// apps returns the prepared placement applications for parts, which is
// t.Normal or t.Failure: Translate's when it left them, otherwise
// prepared here.
func (t *Translation) apps(parts []*portfolio.Partition, prepared []placement.App) ([]placement.App, error) {
	if len(prepared) == len(parts) {
		return prepared, nil
	}
	return partitionApps(parts)
}

// CPeakTotal returns the sum of per-application maximum allocations for
// the normal-mode translation (the paper's ΣC_peak).
func (t *Translation) CPeakTotal() float64 {
	sum := 0.0
	for _, p := range t.Normal {
		sum += p.MaxAllocation()
	}
	return sum
}

// Translate runs the QoS translation for every application. Cancelling
// ctx aborts between per-application translations with a wrapped ctx
// error (translations are fast; there is no partial result).
func (f *Framework) Translate(ctx context.Context, traces trace.Set, reqs Requirements) (*Translation, error) {
	if err := traces.Validate(); err != nil {
		return nil, err
	}
	if err := reqs.Validate(); err != nil {
		return nil, err
	}
	ctx, span := telemetry.StartSpanCtx(ctx, f.cfg.Hooks, "core.translate",
		telemetry.Int("apps", len(traces)))
	defer span.End()
	out := &Translation{
		Traces:  traces,
		Normal:  make([]*portfolio.Partition, len(traces)),
		Failure: make([]*portfolio.Partition, len(traces)),
	}
	theta := f.cfg.Commitment.Theta
	for i, tr := range traces {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: translate: %w", err)
		}
		req := reqs.For(tr.AppID)
		normal, err := portfolio.TranslateCtx(ctx, tr, req.Normal, theta, f.cfg.Hooks)
		if err != nil {
			return nil, fmt.Errorf("core: translate %q (normal): %w", tr.AppID, err)
		}
		out.Normal[i] = normal
		if req.Failure == req.Normal {
			// Translation is a function of (trace, QoS, θ): the failure
			// mode's partition is the normal one.
			out.Failure[i] = normal
			continue
		}
		fail, err := portfolio.TranslateCtx(ctx, tr, req.Failure, theta, f.cfg.Hooks)
		if err != nil {
			return nil, fmt.Errorf("core: translate %q (failure): %w", tr.AppID, err)
		}
		out.Failure[i] = fail
	}
	var err error
	if out.normalApps, err = partitionApps(out.Normal); err != nil {
		return nil, err
	}
	out.failureApps = make([]placement.App, len(out.Failure))
	for i, p := range out.Failure {
		if p == out.Normal[i] {
			out.failureApps[i] = out.normalApps[i] // prepared and digested once
			continue
		}
		if out.failureApps[i], err = partitionApp(p); err != nil {
			return nil, err
		}
	}
	obslog.From(ctx).InfoContext(ctx, "core.translate",
		slog.Int("apps", len(traces)),
		slog.Float64("theta", theta))
	return out, nil
}

// Consolidation is the result of the workload placement stage.
type Consolidation struct {
	Problem *placement.Problem
	Plan    *placement.Plan
	// Hier describes the pool-of-pools decomposition when the framework
	// ran the hierarchical search (Config.PartitionApps > 0); nil for
	// flat consolidations. Hier.Plan and Plan are the same plan.
	Hier *placement.HierPlan
}

// ServersUsed returns the number of servers hosting applications.
func (c *Consolidation) ServersUsed() int { return c.Plan.ServersUsed }

// CRequTotal returns the sum of per-server required capacities (the
// paper's ΣC_requ).
func (c *Consolidation) CRequTotal() float64 { return c.Plan.RequiredTotal }

// Consolidate places the normal-mode translated workloads onto a pool of
// identical servers (one per application to start with, as in the
// paper's consolidation exercises) and runs the genetic search. With
// Config.PartitionApps > 0 it runs the hierarchical pool-of-pools
// search instead and the returned Consolidation carries the
// decomposition in Hier.
func (f *Framework) Consolidate(ctx context.Context, t *Translation) (*Consolidation, error) {
	if t == nil || len(t.Normal) == 0 {
		return nil, errors.New("core: nothing to consolidate")
	}
	problem, err := f.problemFor(t)
	if err != nil {
		return nil, err
	}
	initial, err := placement.OneAppPerServer(problem)
	if err != nil {
		return nil, err
	}
	if f.cfg.PartitionApps > 0 {
		hier, err := placement.ConsolidateHierarchical(ctx, problem, initial, f.cfg.GA, f.hierConfig())
		if err != nil {
			return nil, err
		}
		return &Consolidation{Problem: problem, Plan: hier.Plan, Hier: hier}, nil
	}
	plan, err := placement.Consolidate(ctx, problem, initial, f.cfg.GA)
	if err != nil {
		return nil, err
	}
	return &Consolidation{Problem: problem, Plan: plan}, nil
}

// hierConfig assembles the hierarchical placement configuration from the
// framework's settings.
func (f *Framework) hierConfig() placement.HierConfig {
	return placement.HierConfig{
		MaxApps:  f.cfg.PartitionApps,
		Workers:  f.cfg.Workers,
		Journal:  f.cfg.Journal,
		Topology: f.cfg.Topology,
	}
}

// PartitionPreview clusters the translated fleet into the sub-pools the
// hierarchical search would solve, without running any search: one group
// of application IDs per partition, in canonical partition order. It
// requires Config.PartitionApps > 0.
func (f *Framework) PartitionPreview(ctx context.Context, t *Translation) ([][]string, error) {
	if t == nil || len(t.Normal) == 0 {
		return nil, errors.New("core: nothing to partition")
	}
	if f.cfg.PartitionApps <= 0 {
		return nil, errors.New("core: PartitionPreview needs PartitionApps > 0")
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: partition preview: %w", err)
	}
	problem, err := f.problemFor(t)
	if err != nil {
		return nil, err
	}
	res, err := placement.SplitProblem(problem, f.hierConfig())
	if err != nil {
		return nil, err
	}
	groups := make([][]string, len(res.Groups))
	for k, g := range res.Groups {
		groups[k] = make([]string, len(g))
		for i, a := range g {
			groups[k][i] = problem.Apps[a].ID
		}
	}
	return groups, nil
}

// PlanForFailures analyzes every single-server failure of the
// consolidated configuration with the failure-mode translations.
func (f *Framework) PlanForFailures(ctx context.Context, t *Translation, c *Consolidation) (*failure.Report, error) {
	if t == nil || c == nil {
		return nil, errors.New("core: need a translation and a consolidation")
	}
	in, err := f.failureInput(t, c)
	if err != nil {
		return nil, err
	}
	return failure.Analyze(ctx, in, c.Plan)
}

// PlanForMultiFailures analyzes every combination of k concurrent
// server failures of the consolidated configuration (the paper notes
// the single-failure scenario "can be extended to multiple node
// failures").
func (f *Framework) PlanForMultiFailures(ctx context.Context, t *Translation, c *Consolidation, k int) (*failure.MultiReport, error) {
	if t == nil || c == nil {
		return nil, errors.New("core: need a translation and a consolidation")
	}
	in, err := f.failureInput(t, c)
	if err != nil {
		return nil, err
	}
	return failure.AnalyzeMulti(ctx, in, c.Plan, k)
}

// PlanForScenarios evaluates named failure scenarios — correlated
// domain losses, cascades, maintenance windows, typically compiled by
// the scenario DSL (internal/scenario) against a topology — on the
// consolidated configuration, pricing every outcome with econ (nil
// scores zero).
func (f *Framework) PlanForScenarios(ctx context.Context, t *Translation, c *Consolidation, specs []failure.ScenarioSpec, econ *failure.Economics) (*failure.MultiReport, error) {
	if t == nil || c == nil {
		return nil, errors.New("core: need a translation and a consolidation")
	}
	in, err := f.failureInput(t, c)
	if err != nil {
		return nil, err
	}
	return failure.AnalyzeScenarios(ctx, in, c.Plan, specs, econ)
}

// failureInput assembles a failure sweep's input: the consolidated
// problem plus the translation's prepared failure-mode applications.
func (f *Framework) failureInput(t *Translation, c *Consolidation) (failure.Input, error) {
	failApps, err := t.apps(t.Failure, t.failureApps)
	if err != nil {
		return failure.Input{}, err
	}
	return failure.Input{Problem: c.Problem, FailureApps: failApps, GA: f.cfg.GA, Hooks: f.cfg.Hooks, Inject: f.cfg.Inject, Workers: f.cfg.Workers, Retry: f.cfg.Retry, Journal: f.cfg.Journal}, nil
}

// Report is the full output of a capacity-management pass.
type Report struct {
	Translation   *Translation
	Consolidation *Consolidation
	Failures      *failure.Report
	// Scenarios holds the named-scenario sweep when one was requested
	// (RunScenarios); nil otherwise.
	Scenarios *failure.MultiReport
}

// Run executes the full pipeline: translate, consolidate, plan for
// failures. Cancellation degrades per stage: the consolidation returns
// its best-so-far plan (flagged Truncated) and the failure sweep its
// completed prefix (Report.Truncated), so a cancelled Run still yields
// whatever the pipeline had finished.
func (f *Framework) Run(ctx context.Context, traces trace.Set, reqs Requirements) (report *Report, err error) {
	defer robust.Recover("core.Run", &err)
	ctx, span := telemetry.StartSpanCtx(ctx, f.cfg.Hooks, "core.run",
		telemetry.Int("apps", len(traces)))
	defer span.End()
	obslog.From(ctx).InfoContext(ctx, "core.run", slog.Int("apps", len(traces)))
	t, err := f.Translate(ctx, traces, reqs)
	if err != nil {
		return nil, err
	}
	c, err := f.Consolidate(ctx, t)
	if err != nil {
		return nil, err
	}
	obslog.From(ctx).InfoContext(ctx, "core.consolidate",
		slog.Int("servers_used", c.ServersUsed()))
	fr, err := f.PlanForFailures(ctx, t, c)
	if err != nil {
		return nil, err
	}
	return &Report{Translation: t, Consolidation: c, Failures: fr}, nil
}

// RunScenarios executes the full pipeline and then sweeps the given
// named scenarios with revenue-at-risk economics: translate,
// consolidate, plan for single failures, plan for scenarios. The
// single-failure sweep stays in the report — the scenario universe
// complements it, it does not replace it.
func (f *Framework) RunScenarios(ctx context.Context, traces trace.Set, reqs Requirements, specs []failure.ScenarioSpec, econ *failure.Economics) (report *Report, err error) {
	defer robust.Recover("core.RunScenarios", &err)
	report, err = f.Run(ctx, traces, reqs)
	if err != nil {
		return nil, err
	}
	sr, err := f.PlanForScenarios(ctx, report.Translation, report.Consolidation, specs, econ)
	if err != nil {
		return nil, err
	}
	report.Scenarios = sr
	return report, nil
}

// problemFor assembles the normal-mode placement problem, with one
// candidate server per application.
func (f *Framework) problemFor(t *Translation) (*placement.Problem, error) {
	apps, err := t.apps(t.Normal, t.normalApps)
	if err != nil {
		return nil, err
	}
	servers := make([]placement.Server, len(apps))
	for i := range servers {
		servers[i] = placement.Server{
			ID:          fmt.Sprintf("srv-%02d", i+1),
			CPUs:        f.cfg.ServerCPUs,
			CPUCapacity: f.cfg.ServerCapacityPerCPU,
		}
	}
	interval := t.Traces[0].Interval
	return &placement.Problem{
		Apps:          apps,
		Servers:       servers,
		Commitment:    f.cfg.Commitment,
		SlotsPerDay:   t.Traces[0].SlotsPerDay(),
		DeadlineSlots: f.cfg.Commitment.DeadlineSlots(interval),
		Tolerance:     f.cfg.Tolerance,
		Score:         f.cfg.Score,
		Hooks:         f.cfg.Hooks,
		Inject:        f.cfg.Inject,
		Cache:         f.cache,
	}, nil
}

// partitionApps adapts portfolio partitions to placement applications,
// validating and digesting each translated trace: the prepared App
// values are what every Problem built from them carries.
func partitionApps(parts []*portfolio.Partition) ([]placement.App, error) {
	apps := make([]placement.App, len(parts))
	for i, p := range parts {
		var err error
		if apps[i], err = partitionApp(p); err != nil {
			return nil, err
		}
	}
	return apps, nil
}

func partitionApp(p *portfolio.Partition) (placement.App, error) {
	app := placement.App{
		ID: p.AppID,
		Workload: sim.Workload{
			AppID: p.AppID,
			CoS1:  p.CoS1.Samples,
			CoS2:  p.CoS2.Samples,
		},
	}
	if err := app.Prepare(); err != nil {
		return placement.App{}, fmt.Errorf("core: translated workload: %w", err)
	}
	return app, nil
}
