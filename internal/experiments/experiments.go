// Package experiments regenerates every table and figure of the paper's
// evaluation (section VII) from the synthetic case-study fleet. The
// cmd/experiments binary renders the results as CSV and text tables;
// the repository's top-level benchmarks time the same computations.
//
// The experiments are:
//
//	Fig3     breakpoint p and max-allocation trend vs θ
//	Fig6     top percentiles of normalized CPU demand per application
//	Fig7     MaxCapReduction per application vs Tdegr, at θ=0.95 / 0.6
//	Fig8     % degraded measurements per application, same sweep
//	Table1   the six-case consolidation study
//	Failover the section VI-C spare-server analysis
package experiments

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"ropus/internal/checkpoint"
	"ropus/internal/core"
	"ropus/internal/parallel"
	"ropus/internal/placement"
	"ropus/internal/portfolio"
	"ropus/internal/qos"
	"ropus/internal/resilience"
	"ropus/internal/telemetry"
	"ropus/internal/trace"
	"ropus/internal/workload"
)

// Checkpoint-journal units for resumable experiment sweeps.
const (
	unitTable1 = "experiments.table1"
	unitMix    = "experiments.mix"
)

// TraceSet aliases trace.Set for the cmd/experiments binary.
type TraceSet = trace.Set

// CaseStudyQoS is the paper's case-study application QoS requirement
// before degradation budgets: Ulow=0.5, Uhigh=0.66, Udegr=0.9.
func CaseStudyQoS(mPercent float64, tdegr time.Duration) qos.AppQoS {
	return qos.AppQoS{ULow: 0.5, UHigh: 0.66, UDegr: 0.9, MPercent: mPercent, TDegr: tdegr}
}

// Fleet generates the case-study fleet for the given seed.
func Fleet(seed int64) (trace.Set, error) {
	return workload.Fleet(workload.CaseStudyConfig(seed))
}

// ---------------------------------------------------------------------
// Figure 3: sensitivity of breakpoint and max allocation to θ.

// Fig3Row is one point of Figure 3.
type Fig3Row struct {
	Theta float64
	// Breakpoint is p from formula 1.
	Breakpoint float64
	// MaxAllocTrend is the normalized maximum allocation under a
	// time-limited degradation constraint (normalized to 1 at θ=0.5).
	MaxAllocTrend float64
}

// Fig3 evaluates the Figure 3 curves for θ in [0.5, 1.0].
func Fig3(uLow, uHigh float64) ([]Fig3Row, error) {
	var rows []Fig3Row
	base, err := portfolio.MaxAllocationTrend(uLow, uHigh, 0.5)
	if err != nil {
		return nil, err
	}
	for theta := 0.50; theta <= 1.0+1e-9; theta += 0.025 {
		t := theta
		if t > 1 {
			t = 1
		}
		p, err := portfolio.Breakpoint(uLow, uHigh, t)
		if err != nil {
			return nil, err
		}
		trend, err := portfolio.MaxAllocationTrend(uLow, uHigh, t)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig3Row{Theta: t, Breakpoint: p, MaxAllocTrend: trend / base})
	}
	return rows, nil
}

// ---------------------------------------------------------------------
// Figure 6: top percentiles of CPU demand per application.

// Fig6Levels are the percentile curves the paper plots.
var Fig6Levels = []float64{99.9, 99.5, 99, 98, 97}

// Fig6Row holds one application's normalized top percentiles (percent of
// its peak demand), aligned with Fig6Levels.
type Fig6Row struct {
	AppID       string
	Percentiles []float64
}

// Fig6 computes the percentile profile for every application, ordered as
// in the paper: burstiest first (smallest P97/peak ratio).
func Fig6(set trace.Set) ([]Fig6Row, error) {
	if err := set.Validate(); err != nil {
		return nil, err
	}
	rows := make([]Fig6Row, len(set))
	for i, tr := range set {
		peak := tr.Peak()
		row := Fig6Row{AppID: tr.AppID, Percentiles: make([]float64, len(Fig6Levels))}
		for j, lvl := range Fig6Levels {
			v, err := tr.Percentile(lvl)
			if err != nil {
				return nil, err
			}
			if peak > 0 {
				row.Percentiles[j] = v / peak * 100
			}
		}
		rows[i] = row
	}
	sort.SliceStable(rows, func(i, j int) bool {
		last := len(Fig6Levels) - 1
		return rows[i].Percentiles[last] < rows[j].Percentiles[last]
	})
	return rows, nil
}

// ---------------------------------------------------------------------
// Figures 7 and 8: per-application effect of Mdegr / Tdegr / θ.

// TDegrSweep is the paper's Tdegr sweep: none, 2h, 1h, 30 minutes.
var TDegrSweep = []time.Duration{0, 2 * time.Hour, time.Hour, 30 * time.Minute}

// SweepRow holds one application's metric across the Tdegr sweep,
// aligned with TDegrSweep.
type SweepRow struct {
	AppID  string
	Values []float64
}

// Fig7 computes MaxCapReduction (percent) per application for each Tdegr
// at the given θ, with Mdegr = 3%.
func Fig7(set trace.Set, theta float64) ([]SweepRow, error) {
	return sweep(set, theta, func(p *portfolio.Partition, tr *trace.Trace) float64 {
		return p.MaxCapReduction() * 100
	})
}

// Fig8 computes the percentage of measurements with degraded worst-case
// performance per application for each Tdegr at the given θ.
func Fig8(set trace.Set, theta float64) ([]SweepRow, error) {
	return sweep(set, theta, func(p *portfolio.Partition, tr *trace.Trace) float64 {
		return p.DegradedFraction(tr) * 100
	})
}

func sweep(set trace.Set, theta float64, metric func(*portfolio.Partition, *trace.Trace) float64) ([]SweepRow, error) {
	if err := set.Validate(); err != nil {
		return nil, err
	}
	rows := make([]SweepRow, len(set))
	for i, tr := range set {
		row := SweepRow{AppID: tr.AppID, Values: make([]float64, len(TDegrSweep))}
		for j, tdegr := range TDegrSweep {
			part, err := portfolio.Translate(tr, CaseStudyQoS(97, tdegr), theta)
			if err != nil {
				return nil, fmt.Errorf("experiments: translate %s: %w", tr.AppID, err)
			}
			row.Values[j] = metric(part, tr)
		}
		rows[i] = row
	}
	return rows, nil
}

// ---------------------------------------------------------------------
// Table I: the six-case consolidation study.

// Table1Case identifies one row of Table I.
type Table1Case struct {
	ID    int
	MDegr float64 // percent of measurements allowed to degrade
	Theta float64
	TDegr time.Duration
}

// Table1Cases are the paper's six cases.
var Table1Cases = []Table1Case{
	{ID: 1, MDegr: 0, Theta: 0.60, TDegr: 0},
	{ID: 2, MDegr: 3, Theta: 0.60, TDegr: 30 * time.Minute},
	{ID: 3, MDegr: 3, Theta: 0.60, TDegr: 0},
	{ID: 4, MDegr: 0, Theta: 0.95, TDegr: 0},
	{ID: 5, MDegr: 3, Theta: 0.95, TDegr: 30 * time.Minute},
	{ID: 6, MDegr: 3, Theta: 0.95, TDegr: 0},
}

// Table1Row is one evaluated case.
type Table1Row struct {
	Case Table1Case
	// Servers is the number of 16-way servers the placement service
	// reports as needed.
	Servers int
	// CRequ is the sum of per-server required capacities.
	CRequ float64
	// CPeak is the sum of per-application peak allocations.
	CPeak float64
}

// Table1Config tunes the consolidation runs.
type Table1Config struct {
	// GASeed seeds the genetic search.
	GASeed int64
	// Quick trades search quality for speed (used by benchmarks).
	Quick bool
	// Hooks receives run telemetry (nil disables it).
	Hooks telemetry.Hooks
	// Workers bounds how many cases (and, inside each framework, failure
	// scenarios) run concurrently: 0 selects GOMAXPROCS, 1 is sequential.
	// Results are identical at every worker count.
	Workers int
	// Retry re-attempts a case (or, inside Failover's framework, a
	// failure scenario) that failed transiently. The zero value makes a
	// single attempt.
	Retry resilience.Policy
	// Journal, when non-nil, checkpoints completed cases (and the
	// failure scenarios Failover sweeps) so an interrupted run can
	// resume without recomputing them; replay is bit-exact.
	Journal *checkpoint.Journal
	// PartitionApps, when > 0, consolidates each case with the
	// hierarchical pool-of-pools search capped at this many applications
	// per sub-pool (core.Config.PartitionApps); 0 keeps the flat search.
	// Results are deterministic per (GASeed, PartitionApps) but
	// differ between partition caps.
	PartitionApps int
}

// Table1 runs the six consolidation cases against the fleet.
func Table1(ctx context.Context, set trace.Set, cfg Table1Config) ([]Table1Row, error) {
	cell := checkpoint.Cell{
		Journal: cfg.Journal,
		Unit:    unitTable1,
		Retry:   cfg.Retry,
		Hooks:   cfg.Hooks,
		Replays: "experiments_cases_replayed_total",
	}

	rows := make([]Table1Row, len(Table1Cases))
	errs := make([]error, len(Table1Cases))
	var failed atomic.Bool
	runCase := func(ctx context.Context, i int) (Table1Row, error) {
		c := Table1Cases[i]
		f, err := frameworkFor(c.Theta, cfg)
		if err != nil {
			return Table1Row{}, err
		}
		q := CaseStudyQoS(100-c.MDegr, c.TDegr)
		reqs := core.Requirements{Default: qos.Requirement{Normal: q, Failure: q}}
		tr, err := f.Translate(ctx, set, reqs)
		if err != nil {
			return Table1Row{}, fmt.Errorf("experiments: case %d: %w", c.ID, err)
		}
		cons, err := f.Consolidate(ctx, tr)
		if err != nil {
			return Table1Row{}, fmt.Errorf("experiments: case %d: %w", c.ID, err)
		}
		return Table1Row{
			Case:    c,
			Servers: cons.ServersUsed(),
			CRequ:   cons.CRequTotal(),
			CPeak:   tr.CPeakTotal(),
		}, nil
	}
	done := parallel.ForEach(ctx, cfg.Workers, len(Table1Cases), func(i int) {
		if failed.Load() {
			return // a case already failed; don't burn cycles on the rest
		}
		rows[i], _, _, errs[i] = checkpoint.Memo(ctx, cell,
			checkpoint.NewHasher().Int(int64(Table1Cases[i].ID)).Sum(),
			fmt.Sprintf("case-%d", Table1Cases[i].ID),
			func(attemptCtx context.Context) (Table1Row, error) {
				return runCase(attemptCtx, i)
			})
		if errs[i] != nil {
			failed.Store(true)
		}
	})
	// The first error by case index is the one a sequential run would
	// have returned.
	for i := 0; i < done; i++ {
		if errs[i] != nil {
			return nil, errs[i]
		}
	}
	if done < len(Table1Cases) {
		return nil, fmt.Errorf("experiments: table 1: %w", ctx.Err())
	}
	return rows, nil
}

// frameworkFor builds the case-study framework for a θ commitment.
func frameworkFor(theta float64, cfg Table1Config) (*core.Framework, error) {
	ga := placement.DefaultGAConfig(cfg.GASeed)
	tolerance := 0.1
	if cfg.Quick {
		ga.MaxGenerations = 40
		ga.Stagnation = 10
		ga.PopulationSize = 16
		tolerance = 0.25
	}
	return core.New(core.Config{
		Commitment:           qos.PoolCommitment{Theta: theta, Deadline: time.Hour},
		ServerCPUs:           16,
		ServerCapacityPerCPU: 1,
		GA:                   ga,
		Tolerance:            tolerance,
		Hooks:                cfg.Hooks,
		Workers:              cfg.Workers,
		Retry:                cfg.Retry,
		Journal:              cfg.Journal,
		PartitionApps:        cfg.PartitionApps,
	})
}

// ---------------------------------------------------------------------
// Section VI-C: failure planning.

// FailoverResult is the spare-server analysis of section VI-C: normal
// mode runs under the case 1 constraints; failed applications fall back
// to the case 2 constraints.
type FailoverResult struct {
	// NormalServers is the number of servers used in normal mode.
	NormalServers int
	// Report is the core framework's failure report.
	Report *core.Report
}

// Failover runs the full pipeline with case-1 normal QoS and case-2
// failure QoS and reports whether a spare server is needed.
func Failover(ctx context.Context, set trace.Set, cfg Table1Config) (*FailoverResult, error) {
	f, err := frameworkFor(0.60, cfg)
	if err != nil {
		return nil, err
	}
	reqs := core.Requirements{Default: qos.Requirement{
		Normal:  CaseStudyQoS(100, 0),
		Failure: CaseStudyQoS(97, 30*time.Minute),
	}}
	report, err := f.Run(ctx, set, reqs)
	if err != nil {
		return nil, err
	}
	return &FailoverResult{
		NormalServers: report.Consolidation.ServersUsed(),
		Report:        report,
	}, nil
}
