package ropus

// One benchmark per table and figure of the paper's evaluation (section
// VII), plus ablation benchmarks for the design choices called out in
// DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// The figure/table benchmarks time exactly the computation that
// cmd/experiments uses to regenerate the artifact; custom metrics report
// the headline quantity (e.g. servers used) alongside the timing.

import (
	"context"
	"sync"
	"testing"
	"time"

	"ropus/internal/experiments"
	"ropus/internal/placement"
	"ropus/internal/portfolio"
	"ropus/internal/qos"
	"ropus/internal/sim"
	"ropus/internal/trace"
	"ropus/internal/workload"
)

var (
	fleetOnce sync.Once
	fleetSet  trace.Set
	fleetErr  error
)

// benchFleet returns the shared case-study fleet (generated once).
func benchFleet(b *testing.B) trace.Set {
	b.Helper()
	fleetOnce.Do(func() {
		fleetSet, fleetErr = experiments.Fleet(2006)
	})
	if fleetErr != nil {
		b.Fatal(fleetErr)
	}
	return fleetSet
}

// ---------------------------------------------------------------------
// Figures and tables.

func BenchmarkFig3BreakpointSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig3(0.5, 0.66)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkFig6PercentileProfile(b *testing.B) {
	set := benchFleet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig6(set)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != len(set) {
			b.Fatal("missing rows")
		}
	}
}

func BenchmarkFig7MaxCapReduction(b *testing.B) {
	set := benchFleet(b)
	for _, theta := range []float64{0.95, 0.60} {
		theta := theta
		b.Run(thetaName(theta), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Fig7(set, theta); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig8DegradedMeasurements(b *testing.B) {
	set := benchFleet(b)
	for _, theta := range []float64{0.95, 0.60} {
		theta := theta
		b.Run(thetaName(theta), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Fig8(set, theta); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func thetaName(theta float64) string {
	if theta == 0.95 {
		return "theta=0.95"
	}
	return "theta=0.60"
}

func BenchmarkFailoverAnalysis(b *testing.B) {
	set := benchFleet(b)
	cfg := experiments.Table1Config{GASeed: 42, Quick: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Failover(context.Background(), set, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Report.Failures == nil {
			b.Fatal("no failure report")
		}
	}
}

// ---------------------------------------------------------------------
// Ablations (DESIGN.md section 5).

// table1Problem builds the case-1 placement problem once for the
// placement ablations.
func table1Problem(b *testing.B) *placement.Problem {
	b.Helper()
	set := benchFleet(b)
	q := experiments.CaseStudyQoS(100, 0)
	apps := make([]placement.App, len(set))
	for i, tr := range set {
		part, err := portfolio.Translate(tr, q, 0.60)
		if err != nil {
			b.Fatal(err)
		}
		apps[i] = placement.App{ID: tr.AppID, Workload: sim.Workload{
			AppID: tr.AppID, CoS1: part.CoS1.Samples, CoS2: part.CoS2.Samples,
		}}
	}
	servers := make([]placement.Server, len(set))
	for i := range servers {
		servers[i] = placement.Server{ID: set[i].AppID + "-srv", CPUs: 16, CPUCapacity: 1}
	}
	return &placement.Problem{
		Apps:          apps,
		Servers:       servers,
		Commitment:    qos.PoolCommitment{Theta: 0.60, Deadline: time.Hour},
		SlotsPerDay:   288,
		DeadlineSlots: 12,
		Tolerance:     0.25,
	}
}

// BenchmarkAblationPlacementSearch compares the genetic search (cold and
// greedy-seeded) against the greedy baselines on the case-1 problem.
// The servers-used metric is the quantity the paper's comparison is
// about.
func BenchmarkAblationPlacementSearch(b *testing.B) {
	problem := table1Problem(b)

	runGA := func(b *testing.B, warm bool) {
		cfg := placement.DefaultGAConfig(42)
		cfg.MaxGenerations = 60
		cfg.Stagnation = 15
		cfg.SeedGreedy = warm
		servers := 0
		for i := 0; i < b.N; i++ {
			initial, err := placement.OneAppPerServer(problem)
			if err != nil {
				b.Fatal(err)
			}
			plan, err := placement.Consolidate(context.Background(), problem, initial, cfg)
			if err != nil {
				b.Fatal(err)
			}
			servers = plan.ServersUsed
		}
		b.ReportMetric(float64(servers), "servers")
	}

	b.Run("ga-cold", func(b *testing.B) { runGA(b, false) })
	b.Run("ga-greedy-seeded", func(b *testing.B) { runGA(b, true) })
	b.Run("first-fit-decreasing", func(b *testing.B) {
		servers := 0
		for i := 0; i < b.N; i++ {
			plan, err := placement.FirstFitDecreasing(context.Background(), problem)
			if err != nil {
				b.Fatal(err)
			}
			servers = plan.ServersUsed
		}
		b.ReportMetric(float64(servers), "servers")
	})
	b.Run("best-fit-decreasing", func(b *testing.B) {
		servers := 0
		for i := 0; i < b.N; i++ {
			plan, err := placement.BestFitDecreasing(context.Background(), problem)
			if err != nil {
				b.Fatal(err)
			}
			servers = plan.ServersUsed
		}
		b.ReportMetric(float64(servers), "servers")
	})
	b.Run("least-correlated-fit", func(b *testing.B) {
		servers := 0
		for i := 0; i < b.N; i++ {
			plan, err := placement.LeastCorrelatedFit(context.Background(), problem)
			if err != nil {
				b.Fatal(err)
			}
			servers = plan.ServersUsed
		}
		b.ReportMetric(float64(servers), "servers")
	})
}

// BenchmarkAblationExactVsHeuristics certifies the optimum on a reduced
// 8-application instance (exact search is exponential, as the paper's
// abandoned ILP was) and reports how close each heuristic gets.
func BenchmarkAblationExactVsHeuristics(b *testing.B) {
	full := table1Problem(b)
	small := &placement.Problem{
		Apps:          full.Apps[:8],
		Servers:       full.Servers[:8],
		Commitment:    full.Commitment,
		SlotsPerDay:   full.SlotsPerDay,
		DeadlineSlots: full.DeadlineSlots,
		Tolerance:     full.Tolerance,
	}
	b.Run("exact", func(b *testing.B) {
		servers := 0
		for i := 0; i < b.N; i++ {
			plan, err := placement.Exact(context.Background(), small, 2_000_000)
			if err != nil {
				b.Fatal(err)
			}
			servers = plan.ServersUsed
		}
		b.ReportMetric(float64(servers), "servers")
	})
	b.Run("ga", func(b *testing.B) {
		cfg := placement.DefaultGAConfig(42)
		cfg.MaxGenerations = 60
		cfg.Stagnation = 15
		servers := 0
		for i := 0; i < b.N; i++ {
			initial, err := placement.OneAppPerServer(small)
			if err != nil {
				b.Fatal(err)
			}
			plan, err := placement.Consolidate(context.Background(), small, initial, cfg)
			if err != nil {
				b.Fatal(err)
			}
			servers = plan.ServersUsed
		}
		b.ReportMetric(float64(servers), "servers")
	})
	b.Run("ffd", func(b *testing.B) {
		servers := 0
		for i := 0; i < b.N; i++ {
			plan, err := placement.FirstFitDecreasing(context.Background(), small)
			if err != nil {
				b.Fatal(err)
			}
			servers = plan.ServersUsed
		}
		b.ReportMetric(float64(servers), "servers")
	})
}

// BenchmarkAblationBisectionTolerance measures the required-capacity
// search cost as a function of the bisection tolerance.
func BenchmarkAblationBisectionTolerance(b *testing.B) {
	set := benchFleet(b)
	q := experiments.CaseStudyQoS(97, 0)
	workloads := make([]sim.Workload, 0, 3)
	for _, tr := range set[:3] {
		part, err := portfolio.Translate(tr, q, 0.60)
		if err != nil {
			b.Fatal(err)
		}
		workloads = append(workloads, sim.Workload{
			AppID: tr.AppID, CoS1: part.CoS1.Samples, CoS2: part.CoS2.Samples,
		})
	}
	agg, err := sim.NewAggregate(workloads)
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.Config{
		Commitment:    qos.PoolCommitment{Theta: 0.60, Deadline: time.Hour},
		SlotsPerDay:   288,
		DeadlineSlots: 12,
	}
	for _, tol := range []float64{0.5, 0.1, 0.02} {
		tol := tol
		name := "tol=0.5"
		switch tol {
		case 0.1:
			name = "tol=0.1"
		case 0.02:
			name = "tol=0.02"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, _, err := agg.RequiredCapacity(context.Background(), cfg, 16, tol); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// Substrate microbenchmarks.

func BenchmarkFleetGeneration(b *testing.B) {
	cfg := workload.CaseStudyConfig(2006)
	for i := 0; i < b.N; i++ {
		if _, err := workload.Fleet(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
