package experiments

import (
	"context"
	"fmt"
	"time"

	"ropus/internal/checkpoint"
	"ropus/internal/parallel"
	"ropus/internal/placement"
	"ropus/internal/portfolio"
	"ropus/internal/qos"
	"ropus/internal/resilience"
	"ropus/internal/sim"
	"ropus/internal/telemetry"
	"ropus/internal/workload"
)

// Mix is an extra experiment beyond the paper's evaluation: a fleet of
// interactive (day-peaking) and batch (night-peaking) applications is
// consolidated by every placement algorithm in the repository. The
// anti-correlation between the classes is exactly the structure the
// paper's related-work section says correlation-aware heuristics could
// exploit; the experiment quantifies how much each algorithm actually
// exploits it.

// MixRow is one algorithm's result on the mixed fleet.
type MixRow struct {
	Algorithm string
	Servers   int
	CRequ     float64
	// Feasible is false when the algorithm failed to place the fleet.
	Feasible bool
}

// MixConfig parameterizes the mixed-fleet experiment.
type MixConfig struct {
	// Interactive and Batch are the class sizes (default 6/6 when 0).
	Interactive, Batch int
	// Seed drives both fleet generation and the genetic search.
	Seed int64
	// Quick trades search quality for speed.
	Quick bool
	// Hooks receives run telemetry (nil disables it).
	Hooks telemetry.Hooks
	// Workers bounds how many algorithms run concurrently: 0 selects
	// GOMAXPROCS, 1 is sequential. Results are identical either way.
	Workers int
	// Retry re-attempts an algorithm that failed transiently; the zero
	// value makes a single attempt.
	Retry resilience.Policy
	// Journal, when non-nil, checkpoints each algorithm's completed row
	// so an interrupted comparison can resume without recomputing it.
	Journal *checkpoint.Journal
}

// Mix runs the mixed-fleet consolidation comparison.
func Mix(ctx context.Context, cfg MixConfig) ([]MixRow, error) {
	if cfg.Interactive <= 0 {
		cfg.Interactive = 6
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 6
	}
	set, err := workload.Fleet(workload.FleetConfig{
		Smooth:   cfg.Interactive,
		Batch:    cfg.Batch,
		Weeks:    2,
		Interval: 15 * time.Minute,
		Seed:     cfg.Seed,
	})
	if err != nil {
		return nil, err
	}

	theta := 0.6
	q := CaseStudyQoS(97, 30*time.Minute)
	apps := make([]placement.App, len(set))
	for i, tr := range set {
		part, err := portfolio.Translate(tr, q, theta)
		if err != nil {
			return nil, err
		}
		apps[i] = placement.App{ID: tr.AppID, Workload: sim.Workload{
			AppID: tr.AppID, CoS1: part.CoS1.Samples, CoS2: part.CoS2.Samples,
		}}
		// Prepared once here: the algorithms below share these values.
		if err := apps[i].Prepare(); err != nil {
			return nil, err
		}
	}
	servers := make([]placement.Server, len(apps))
	for i := range servers {
		servers[i] = placement.Server{ID: fmt.Sprintf("srv-%02d", i+1), CPUs: 16, CPUCapacity: 1}
	}
	problem := &placement.Problem{
		Apps:          apps,
		Servers:       servers,
		Commitment:    qos.PoolCommitment{Theta: theta, Deadline: time.Hour},
		SlotsPerDay:   set[0].SlotsPerDay(),
		DeadlineSlots: 4,
		Tolerance:     0.1,
		Hooks:         cfg.Hooks,
		Cache:         placement.NewSimCache(0),
	}

	ga := placement.DefaultGAConfig(cfg.Seed)
	if cfg.Quick {
		ga.MaxGenerations = 40
		ga.Stagnation = 10
		ga.PopulationSize = 16
		problem.Tolerance = 0.25
	}

	algos := []struct {
		name string
		fn   func(context.Context, *placement.Problem) (*placement.Plan, error)
	}{
		{"first-fit-decreasing", placement.FirstFitDecreasing},
		{"best-fit-decreasing", placement.BestFitDecreasing},
		{"least-correlated-fit", placement.LeastCorrelatedFit},
		{"genetic", func(ctx context.Context, p *placement.Problem) (*placement.Plan, error) {
			initial, err := placement.OneAppPerServer(p)
			if err != nil {
				return nil, err
			}
			return placement.Consolidate(ctx, p, initial, ga)
		}},
	}
	cell := checkpoint.Cell{
		Journal: cfg.Journal,
		Unit:    unitMix,
		Retry:   cfg.Retry,
		Hooks:   cfg.Hooks,
		Replays: "experiments_cases_replayed_total",
	}

	// An algorithm that errors (or is never dispatched after a cancel)
	// reports just its name, as the sequential code did.
	rows := make([]MixRow, len(algos))
	for i := range rows {
		rows[i].Algorithm = algos[i].name
	}
	parallel.ForEach(ctx, cfg.Workers, len(algos), func(i int) {
		row, _, _, err := checkpoint.Memo(ctx, cell,
			checkpoint.NewHasher().String(algos[i].name).Sum(), algos[i].name,
			func(attemptCtx context.Context) (MixRow, error) {
				// Each algorithm gets its own shallow Problem copy: Validate
				// memoizes the attribute union on the struct, which would
				// race. The copies still share the one simulation cache, so
				// every (server, group) any algorithm solves is solved once.
				p := *problem
				plan, err := algos[i].fn(attemptCtx, &p)
				if err != nil {
					return MixRow{}, err
				}
				return MixRow{
					Algorithm: algos[i].name,
					Servers:   plan.ServersUsed,
					CRequ:     plan.RequiredTotal,
					Feasible:  plan.Feasible,
				}, nil
			})
		if err == nil {
			rows[i] = row
		}
	})
	return rows, nil
}
