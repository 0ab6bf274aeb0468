// Package ropus is a Go implementation of R-Opus, the composite
// framework for application performability and QoS in shared resource
// pools from Cherkasova & Rolia (DSN 2006).
//
// R-Opus brings four ingredients together:
//
//   - Per-application QoS requirements (qos.AppQoS) for normal and
//     failure modes: an acceptable utilization-of-allocation range
//     [Ulow, Uhigh], a budget Mdegr of measurements that may degrade up
//     to Udegr, and a limit Tdegr on contiguous degradation.
//   - Resource-pool QoS commitments (qos.PoolCommitment) for two classes
//     of service: CoS1 is guaranteed, CoS2 offers capacity with a
//     resource access probability θ and a make-up deadline.
//   - A QoS translation (portfolio) that splits each application's
//     demands across the two classes so the application requirement
//     holds whenever the pool honours its commitment.
//   - A workload placement service (sim + placement + failure) that
//     consolidates the translated workloads onto few servers and reports
//     whether single-server failures can be absorbed without a spare.
//
// The public API re-exports the internal building blocks with type
// aliases, so the documented behaviour lives next to the implementation
// while users import a single package:
//
//	f, err := ropus.NewFramework(ropus.Config{
//	    Commitment:           ropus.PoolCommitment{Theta: 0.6, Deadline: time.Hour},
//	    ServerCPUs:           16,
//	    ServerCapacityPerCPU: 1,
//	    GA:                   ropus.DefaultGAConfig(1),
//	})
//	report, err := f.Run(traces, ropus.Requirements{Default: req})
//
// See the examples directory for runnable end-to-end scenarios and
// EXPERIMENTS.md for the reproduction of the paper's evaluation.
package ropus

import (
	"context"
	"time"

	"ropus/internal/core"
	"ropus/internal/faultinject"
	"ropus/internal/placement"
	"ropus/internal/planner"
	"ropus/internal/pool"
	"ropus/internal/portfolio"
	"ropus/internal/qos"
	"ropus/internal/sim"
	"ropus/internal/stress"
	"ropus/internal/telemetry"
	"ropus/internal/trace"
	"ropus/internal/wlmgr"
	"ropus/internal/workload"
)

// Application QoS vocabulary (paper section III).
type (
	// AppQoS is a per-application QoS requirement for one operating mode.
	AppQoS = qos.AppQoS
	// Requirement pairs normal-mode and failure-mode QoS.
	Requirement = qos.Requirement
	// PoolCommitment is the pool operator's CoS2 access commitment
	// (paper section IV).
	PoolCommitment = qos.PoolCommitment
)

// The two classes of service.
const (
	CoS1 = qos.CoS1
	CoS2 = qos.CoS2
)

// AttrMemory is the common additional capacity attribute (any string
// works as an attribute name).
const AttrMemory = placement.AttrMemory

// Demand traces (paper section II).
type (
	// Trace is a demand time series for one application workload.
	Trace = trace.Trace
	// TraceSet is an aligned collection of traces.
	TraceSet = trace.Set
)

// DefaultInterval is the paper's five-minute measurement interval.
const DefaultInterval = trace.DefaultInterval

// QoS translation (paper section V).
type (
	// Partition is the result of translating one application's demands
	// onto the pool's two classes of service.
	Partition = portfolio.Partition
)

// Workload placement (paper section VI).
type (
	// Workload is an application's translated per-CoS allocation traces
	// for one capacity attribute.
	Workload = sim.Workload
	// Attribute names an additional capacity attribute.
	Attribute = placement.Attribute
	// PlacementApp is an application workload to place.
	PlacementApp = placement.App
	// Server describes one pool resource.
	Server = placement.Server
	// PlacementProblem is a consolidation exercise.
	PlacementProblem = placement.Problem
	// Assignment maps applications to servers.
	Assignment = placement.Assignment
	// Plan is an evaluated assignment.
	Plan = placement.Plan
	// GAConfig tunes the genetic consolidation search.
	GAConfig = placement.GAConfig
	// SimCache is a shared, size-bounded cross-run simulation cache;
	// attach one via PlacementProblem.Cache (or let the Framework manage
	// one via Config.CacheBytes) to reuse per-(server-shape, app-group)
	// results bit-exactly across searches, failure sweeps and planning.
	SimCache = placement.SimCache
)

// NewSimCache builds a shared simulation cache bounded to maxBytes of
// accounted entry memory (<= 0 selects the default bound).
func NewSimCache(maxBytes int64) *SimCache { return placement.NewSimCache(maxBytes) }

// Time-domain pool simulation through a failure (performability).
type (
	// PoolApp couples a demand trace with normal/failure translations
	// for the pool simulator.
	PoolApp = pool.App
	// PoolScenario describes the failure event to simulate.
	PoolScenario = pool.Scenario
	// PoolResult is the simulated outcome.
	PoolResult = pool.Result
)

// SimulatePoolFailure replays the whole pool through a server failure
// and migration, reporting what each application experienced.
func SimulatePoolFailure(s *PoolScenario) (*PoolResult, error) { return pool.Run(s) }

// Long-term capacity planning (paper Figure 1).
type (
	// PlannerConfig parameterizes a capacity-planning run.
	PlannerConfig = planner.Config
	// CapacityPlan is the outcome of a capacity-planning run.
	CapacityPlan = planner.Plan
)

// The composite framework (paper Figure 2).
type (
	// Config parameterizes a Framework.
	Config = core.Config
	// Framework is the R-Opus capacity self-management system.
	Framework = core.Framework
	// Requirements maps applications to QoS requirements.
	Requirements = core.Requirements
	// Translation is the output of the QoS translation stage.
	Translation = core.Translation
	// Consolidation is the output of the placement stage.
	Consolidation = core.Consolidation
	// Report is the full output of a capacity-management pass.
	Report = core.Report
)

// Synthetic workloads and the stress-test substrate.
type (
	// FleetConfig describes a synthetic fleet.
	FleetConfig = workload.FleetConfig
	// StressApplication models a system under stress test.
	StressApplication = stress.Application
	// StressTargets are stress-test responsiveness goals.
	StressTargets = stress.Targets
	// UtilizationRange is a derived (Ulow, Uhigh) operating range.
	UtilizationRange = stress.Range
)

// Workload-manager runtime simulation (paper section II).
type (
	// Container couples a demand trace with its translation for replay
	// through the workload-manager simulator.
	Container = wlmgr.Container
	// Compliance summarizes achieved QoS against a requirement.
	Compliance = wlmgr.Compliance
)

// Robustness: deterministic fault injection and graceful degradation.
// Long-running components accept a fault injector (nil = no faults) via
// Config.Inject, PlacementProblem.Inject and PlannerConfig.Inject; see
// docs/ROBUSTNESS.md for the injection points and the degradation
// semantics.
type (
	// FaultRule scripts faults for one injection point.
	FaultRule = faultinject.Rule
	// FaultScript is a deterministic, seeded injector driven by rules.
	FaultScript = faultinject.Script
)

// NewFaultScript builds a deterministic fault-injection script from
// validated rules.
func NewFaultScript(seed int64, rules ...FaultRule) (*FaultScript, error) {
	return faultinject.NewScript(seed, rules...)
}

// Telemetry: zero-dependency metrics, span tracing and progress hooks.
// Long-running components accept a Hooks (nil = no-op) via Config.Hooks,
// PlacementProblem.Hooks and PlannerConfig.Hooks; see
// docs/OBSERVABILITY.md for the metric and span taxonomy.
type (
	// Hooks hands out metric and span handles to instrumented code.
	Hooks = telemetry.Hooks
	// MetricsRegistry is a concurrency-safe registry of counters,
	// gauges and histograms.
	MetricsRegistry = telemetry.Registry
	// Tracer records spans for Chrome trace_event export.
	Tracer = telemetry.Tracer
)

// NewMetricsRegistry builds an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// NewTracer builds an empty span tracer.
func NewTracer() *Tracer { return telemetry.NewTracer() }

// NewHooks couples a registry and a tracer into a Hooks; either may be
// nil to disable that half.
func NewHooks(reg *MetricsRegistry, tracer *Tracer) Hooks {
	return telemetry.New(reg, tracer)
}

// NewFramework builds the composite framework from a configuration.
func NewFramework(cfg Config) (*Framework, error) { return core.New(cfg) }

// NewTrace builds a validated demand trace.
func NewTrace(appID string, interval time.Duration, samples []float64) (*Trace, error) {
	return trace.New(appID, interval, samples)
}

// Translate maps one application's demand trace onto the pool's two
// classes of service (paper section V).
func Translate(tr *Trace, q AppQoS, theta float64) (*Partition, error) {
	return portfolio.Translate(tr, q, theta)
}

// Breakpoint computes the CoS1/CoS2 demand breakpoint p (formula 1).
func Breakpoint(uLow, uHigh, theta float64) (float64, error) {
	return portfolio.Breakpoint(uLow, uHigh, theta)
}

// MaxCapReductionBound is the formula-5 bound 1 - Uhigh/Udegr on the
// reduction of the maximum allocation from permitting degradation.
func MaxCapReductionBound(uHigh, uDegr float64) float64 {
	return portfolio.MaxCapReductionBound(uHigh, uDegr)
}

// GenerateFleet produces a deterministic synthetic fleet of application
// demand traces (the substitute for the paper's proprietary data).
func GenerateFleet(cfg FleetConfig) (TraceSet, error) { return workload.Fleet(cfg) }

// CaseStudyFleet returns the 26-application, four-week fleet standing in
// for the paper's case study.
func CaseStudyFleet(seed int64) (TraceSet, error) {
	return workload.Fleet(workload.CaseStudyConfig(seed))
}

// DefaultGAConfig returns the genetic-search configuration used for the
// case study.
func DefaultGAConfig(seed int64) GAConfig { return placement.DefaultGAConfig(seed) }

// EvaluatePlacement scores an assignment against a placement problem
// without searching.
func EvaluatePlacement(p *PlacementProblem, a Assignment) (*Plan, error) {
	return placement.Evaluate(p, a)
}

// ConsolidatePlacement runs the genetic consolidation search from the
// given initial assignment. Cancelling ctx returns the best feasible
// plan found so far with Plan.Truncated set; see docs/ROBUSTNESS.md for
// the degradation rules.
func ConsolidatePlacement(ctx context.Context, p *PlacementProblem, initial Assignment, cfg GAConfig) (*Plan, error) {
	return placement.Consolidate(ctx, p, initial, cfg)
}

// OneAppPerServer returns the trivial one-application-per-server
// assignment used as the usual starting configuration.
func OneAppPerServer(p *PlacementProblem) (Assignment, error) {
	return placement.OneAppPerServer(p)
}

// FirstFitDecreasing runs the greedy first-fit-decreasing baseline.
func FirstFitDecreasing(ctx context.Context, p *PlacementProblem) (*Plan, error) {
	return placement.FirstFitDecreasing(ctx, p)
}

// BestFitDecreasing runs the greedy best-fit-decreasing baseline.
func BestFitDecreasing(ctx context.Context, p *PlacementProblem) (*Plan, error) {
	return placement.BestFitDecreasing(ctx, p)
}

// LeastCorrelatedFit runs the correlation-aware greedy heuristic the
// paper's related-work section suggests exploring.
func LeastCorrelatedFit(ctx context.Context, p *PlacementProblem) (*Plan, error) {
	return placement.LeastCorrelatedFit(ctx, p)
}

// PlanCapacity projects demand over the configured horizon and reports
// when the current pool will be exhausted (paper Figure 1's long-term
// capacity planning).
// Cancelling ctx returns the completed prefix of horizon steps with
// CapacityPlan.Truncated set.
func PlanCapacity(ctx context.Context, cfg PlannerConfig, traces TraceSet) (*CapacityPlan, error) {
	return planner.Run(ctx, cfg, traces)
}

// DeriveUtilizationRange runs the stress-test substrate to find the
// (Ulow, Uhigh) operating range meeting the responsiveness targets.
func DeriveUtilizationRange(app StressApplication, targets StressTargets) (UtilizationRange, error) {
	return stress.DeriveRange(app, targets)
}

// RunWorkloadManager replays containers through the workload-manager
// simulator at the given capacity and allocation lag.
func RunWorkloadManager(ctx context.Context, capacity float64, containers []Container, lag int) (*wlmgr.RunResult, error) {
	return wlmgr.Replay(ctx, capacity, containers, wlmgr.Options{Lag: lag})
}

// CheckCompliance evaluates achieved utilizations of allocation against
// an application QoS requirement.
func CheckCompliance(cs wlmgr.ContainerStats, q AppQoS, interval time.Duration) (Compliance, error) {
	return wlmgr.CheckCompliance(cs, q, interval)
}
