package placement

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"

	"ropus/internal/parallel"
	"ropus/internal/robust"
	"ropus/internal/telemetry"
)

// ErrNoFeasible is returned by Consolidate when no assignment satisfying
// the commitments was found; callers (notably the failure planner) match
// it with errors.Is to distinguish "does not fit" from invalid input.
var ErrNoFeasible = errors.New("placement: no feasible assignment found")

// GAConfig tunes the genetic search (paper Figure 5). The zero value is
// not usable; start from DefaultGAConfig.
type GAConfig struct {
	// PopulationSize is the number of assignments per generation.
	PopulationSize int
	// MaxGenerations bounds the search.
	MaxGenerations int
	// Stagnation stops the search after this many generations without
	// score improvement ("little improvement" in Figure 5).
	Stagnation int
	// Elite is the number of best assignments copied unchanged into the
	// next generation.
	Elite int
	// TournamentK is the tournament size for parent selection.
	TournamentK int
	// MutationRate is the per-offspring probability of applying a
	// mutation (either emptying a server or moving a single app).
	MutationRate float64
	// SeedGreedy adds the first-fit-decreasing and best-fit-decreasing
	// packings to the initial population as warm starts; the search can
	// only improve on them.
	SeedGreedy bool
	// Seed makes the search deterministic.
	Seed int64
	// Islands splits the population into this many subpopulations that
	// evolve independently (each on its own deterministically derived
	// RNG) and exchange their best member around a ring every
	// MigrationInterval generations. 0 or 1 runs a ring of one island
	// drawing from Seed itself: the classic single-population search.
	// Any value is byte-deterministic per (Seed, Islands) regardless of
	// how many worker goroutines evaluate offspring.
	Islands int
	// MigrationInterval is the number of generations between ring
	// migrations when Islands > 1; 0 selects DefaultMigrationInterval.
	MigrationInterval int
}

// DefaultGAConfig returns the configuration used for the case study.
func DefaultGAConfig(seed int64) GAConfig {
	return GAConfig{
		PopulationSize: 32,
		MaxGenerations: 250,
		Stagnation:     40,
		Elite:          2,
		TournamentK:    3,
		MutationRate:   0.9,
		SeedGreedy:     true,
		Seed:           seed,
	}
}

// Validate checks the GA parameters.
func (c GAConfig) Validate() error {
	switch {
	case c.PopulationSize < 2:
		return fmt.Errorf("placement: PopulationSize %d < 2", c.PopulationSize)
	case c.MaxGenerations < 1:
		return fmt.Errorf("placement: MaxGenerations %d < 1", c.MaxGenerations)
	case c.Stagnation < 1:
		return fmt.Errorf("placement: Stagnation %d < 1", c.Stagnation)
	case c.Elite < 0 || c.Elite >= c.PopulationSize:
		return fmt.Errorf("placement: Elite %d outside [0,%d)", c.Elite, c.PopulationSize)
	case c.TournamentK < 1:
		return fmt.Errorf("placement: TournamentK %d < 1", c.TournamentK)
	case c.TournamentK > c.PopulationSize:
		return fmt.Errorf("placement: TournamentK %d > PopulationSize %d", c.TournamentK, c.PopulationSize)
	// Negated-range form so that a NaN rate is rejected too.
	case !(c.MutationRate >= 0 && c.MutationRate <= 1):
		return fmt.Errorf("placement: MutationRate %v outside [0,1]", c.MutationRate)
	case c.Islands < 0:
		return fmt.Errorf("placement: Islands %d < 0", c.Islands)
	case c.MigrationInterval < 0:
		return fmt.Errorf("placement: MigrationInterval %d < 0", c.MigrationInterval)
	}
	if c.Islands > 1 {
		// Every island must be able to run the same tournament/elite
		// machinery on its share of the population.
		smallest := c.PopulationSize / c.Islands
		switch {
		case smallest < 2:
			return fmt.Errorf("placement: PopulationSize %d splits below 2 members across %d islands", c.PopulationSize, c.Islands)
		case c.Elite >= smallest:
			return fmt.Errorf("placement: Elite %d >= island population %d", c.Elite, smallest)
		case c.TournamentK > smallest:
			return fmt.Errorf("placement: TournamentK %d > island population %d", c.TournamentK, smallest)
		}
	}
	return nil
}

// Consolidate runs the genetic search from the given initial assignment
// and returns the best feasible plan found. It returns an error if no
// feasible assignment is discovered (including the initial one).
//
// The search runs as a ring of n = max(cfg.Islands, 1) islands (see
// islands.go): subpopulations that evolve independently and trade their
// best member around the ring every MigrationInterval generations. A
// ring of one is the classic single-population search of Figure 5.
//
// Cancellation degrades gracefully: ctx is checked at every generation
// boundary (and by the parallel offspring evaluations), and a cancelled
// search returns its best feasible plan so far with Plan.Truncated set
// and a nil error. Only when cancellation strikes before any feasible
// plan exists does Consolidate return an error. The initial population
// is always evaluated to completion (detached from ctx's cancellation)
// so that a given seed yields the same best-so-far plan no matter when
// the cancel lands.
func Consolidate(ctx context.Context, p *Problem, initial Assignment, cfg GAConfig) (plan *Plan, err error) {
	defer robust.Recover("placement.Consolidate", &err)
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := initial.Validate(p); err != nil {
		return nil, err
	}
	n := max(cfg.Islands, 1)
	attrs := []telemetry.Attr{telemetry.Int("apps", len(p.Apps)),
		telemetry.Int("servers", len(p.Servers)),
		telemetry.Int("population", cfg.PopulationSize)}
	if n > 1 {
		attrs = append(attrs, telemetry.Int("islands", n))
	}
	ctx, span := telemetry.StartSpanCtx(ctx, p.Hooks, "placement.consolidate", attrs...)
	defer span.End()
	tel := newGATelemetry(telemetry.OrNop(p.Hooks), n)

	ev := newEvaluator(p)
	sc := ev.acquire()
	defer ev.release(sc)
	islands, err := seedRing(ctx, ev, sc, initial, cfg, n)
	if err != nil {
		return nil, err
	}

	// Each epoch runs every unparked island MigrationInterval further
	// generations in parallel, then migrates at the barrier. Workers are
	// split so each island's offspring evaluations get an even share of
	// the cores.
	workers := max(runtime.GOMAXPROCS(0)/n, 1)
	gens, epochs, truncated := 0, 0, false
	for gens < cfg.MaxGenerations && !truncated {
		step := min(cfg.migrationInterval(), cfg.MaxGenerations-gens)
		active := 0
		for _, isl := range islands {
			if !isl.parked(cfg) {
				active++
			}
		}
		if active == 0 {
			break
		}
		// Dispatch with a detached context: every island must enter the
		// epoch (its own loop observes ctx and stops at a generation
		// boundary), otherwise cancellation timing could strand islands
		// at different epochs.
		parallel.ForEach(context.WithoutCancel(ctx), min(n, runtime.GOMAXPROCS(0)), n, func(i int) {
			islands[i].runEpoch(ctx, ev, cfg, step, workers, tel)
		})
		epochs++
		for _, isl := range islands {
			if isl.err != nil {
				return nil, isl.err
			}
			truncated = truncated || isl.truncated
		}
		gens += step
		if !truncated {
			migrate(islands, cfg, tel)
		}
	}

	// The global best is collected deterministically in island order
	// with the per-island improvement threshold, so ties go to the lowest
	// island index.
	var best *scored
	ran := 0
	for _, isl := range islands {
		if isl.best != nil && (best == nil || isl.best.score > best.score+1e-12) {
			best = isl.best
		}
		ran = max(ran, isl.ran)
	}
	span.SetAttr(telemetry.Int("generations", ran),
		telemetry.Bool("feasible", best != nil),
		telemetry.Bool("truncated", truncated))
	if n > 1 {
		span.SetAttr(telemetry.Int("epochs", epochs))
	}
	if best == nil {
		if truncated {
			return nil, fmt.Errorf("placement: consolidation cancelled after %d generations with no feasible plan: %w", ran, ctx.Err())
		}
		return nil, fmt.Errorf("%w after %d generations", ErrNoFeasible, cfg.MaxGenerations)
	}
	// A record evicted since scoring is computed again, so a truncated
	// search expands its best plan detached from the cancel.
	if plan, err = ev.materialise(context.WithoutCancel(ctx), sc, best); err != nil {
		return nil, err
	}
	if truncated {
		telemetry.OrNop(p.Hooks).Counter("ga_truncated_total").Inc()
		plan.Truncated = true
	}
	span.SetAttr(telemetry.Int("servers_used", plan.ServersUsed), telemetry.Float("score", plan.Score))
	return plan, nil
}

// meanScoreOf returns the population's mean consolidation score.
func meanScoreOf(pop []*scored) float64 {
	if len(pop) == 0 {
		return 0
	}
	sum := 0.0
	for _, c := range pop {
		sum += c.score
	}
	return sum / float64(len(pop))
}

// scoreAll scores assignments on at most workers goroutines (<= 0
// selects GOMAXPROCS), writing each result at its index. The evaluator's
// cache is shared and every evaluation is a pure content-keyed function,
// so the results are identical at any worker count. A dispatch cut short
// by ctx returns ctx's error; a panic in an evaluation is re-raised on
// the caller's goroutine.
func scoreAll(ctx context.Context, ev *evaluator, assignments []Assignment, workers int) ([]*scored, error) {
	out := make([]*scored, len(assignments))
	errs := make([]error, len(assignments))
	done := parallel.ForEach(ctx, workers, len(assignments), func(i int) {
		sc := ev.acquire()
		defer ev.release(sc)
		out[i], errs[i] = ev.score(ctx, sc, assignments[i])
	})
	if done < len(assignments) {
		return nil, fmt.Errorf("placement: scoring cancelled after %d of %d assignments: %w", done, len(assignments), ctx.Err())
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sortPopulation orders candidates best-score-first, breaking ties in
// favour of feasible ones and fewer servers.
func sortPopulation(pop []*scored) {
	sort.SliceStable(pop, func(i, j int) bool {
		if pop[i].feasible != pop[j].feasible {
			return pop[i].feasible
		}
		if pop[i].score != pop[j].score {
			return pop[i].score > pop[j].score
		}
		return pop[i].serversUsed < pop[j].serversUsed
	})
}

// bestFeasible returns the best feasible candidate in a sorted
// population.
func bestFeasible(pop []*scored) *scored {
	for _, c := range pop {
		if c.feasible {
			return c
		}
	}
	return nil
}

// tournament picks the best of k random population members.
func tournament(pop []*scored, k int, rng *rand.Rand) *scored {
	best := pop[rng.Intn(len(pop))]
	for i := 1; i < k; i++ {
		if cand := pop[rng.Intn(len(pop))]; better(cand, best) {
			best = cand
		}
	}
	return best
}

// better orders two candidates the same way as sortPopulation.
func better(a, b *scored) bool {
	if a.feasible != b.feasible {
		return a.feasible
	}
	return a.score > b.score
}

// crossover mates two assignments: each application inherits its server
// from one parent at random (the paper's "straightforward" cross-over).
func crossover(a, b Assignment, rng *rand.Rand) Assignment {
	child := make(Assignment, len(a))
	for i := range child {
		if rng.Intn(2) == 0 {
			child[i] = a[i]
		} else {
			child[i] = b[i]
		}
	}
	return child
}

// mutate perturbs an assignment. Most of the time it empties one used
// server, migrating its applications to other used servers, so the step
// tends to reduce the number of servers in use by one (per the paper);
// the rest of the time it moves a single application, giving the search
// a fine-grained repair move for nearly-feasible packings.
func mutate(a Assignment, p *Problem, rng *rand.Rand, g *grouping) {
	if rng.Float64() < 0.4 {
		moveOneApp(a, p, rng, g)
		return
	}
	emptyOneServer(a, p, rng, g)
}

// usedServers lists into g.used the servers hosting at least one app
// under g's current grouping, skipping server except.
func usedServers(g *grouping, servers, except int) []int {
	g.used = g.used[:0]
	for s := 0; s < servers; s++ {
		if s != except && len(g.of(s)) > 0 {
			g.used = append(g.used, s)
		}
	}
	return g.used
}

// moveOneApp reassigns one random application to another server that is
// currently in use (or any server when only one is used).
func moveOneApp(a Assignment, p *Problem, rng *rand.Rand, g *grouping) {
	if len(a) == 0 {
		return
	}
	app := rng.Intn(len(a))
	groupByServer(a, len(p.Servers), g)
	used := usedServers(g, len(p.Servers), a[app])
	if len(used) == 0 {
		a[app] = rng.Intn(len(p.Servers))
		return
	}
	a[app] = used[rng.Intn(len(used))]
}

// emptyOneServer migrates every application off one donor server.
func emptyOneServer(a Assignment, p *Problem, rng *rand.Rand, g *grouping) {
	groupByServer(a, len(p.Servers), g)
	used := usedServers(g, len(p.Servers), -1)
	if len(used) < 2 {
		// A single used server: migrate one random app to a random
		// server to keep the search moving.
		if len(a) > 1 {
			a[rng.Intn(len(a))] = rng.Intn(len(p.Servers))
		}
		return
	}
	// Weight donors by how lightly loaded they are (few apps => likely
	// donor), a cheap stand-in for 1 - f(U) that needs no simulation.
	g.weights = g.weights[:0]
	total := 0.0
	for _, s := range used {
		w := 1 / float64(len(g.of(s)))
		g.weights = append(g.weights, w)
		total += w
	}
	r := rng.Float64() * total
	donor := used[len(used)-1]
	for i, w := range g.weights {
		if r < w {
			donor = used[i]
			break
		}
		r -= w
	}
	// Migrate every app on the donor to another used server.
	for _, app := range g.of(donor) {
		dest := donor
		for dest == donor {
			dest = used[rng.Intn(len(used))]
		}
		a[app] = dest
	}
}
