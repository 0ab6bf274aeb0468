package placement

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

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
	// MigrationInterval generations. 0 or 1 runs the classic
	// single-population search, bit-for-bit identical to earlier
	// releases; any value is byte-deterministic per (Seed, Islands)
	// regardless of how many worker goroutines evaluate offspring.
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
// Cancellation degrades gracefully: ctx is checked at every generation
// boundary (and by the parallel offspring evaluations), and a cancelled
// search returns its best feasible plan so far with Plan.Truncated set
// and a nil error. Only when cancellation strikes before any feasible
// plan exists does Consolidate return an error. The initial population
// is always evaluated to completion (detached from ctx's cancellation)
// so that a given seed yields the same best-so-far plan no matter when
// the cancel lands.
//
// With cfg.Islands > 1 the search runs the deterministic island model
// (see islands.go): the population is split into subpopulations that
// evolve independently and trade their best member around a ring every
// MigrationInterval generations. Islands <= 1 runs the classic
// single-population loop below, unchanged.
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
	if cfg.Islands > 1 {
		return consolidateIslands(ctx, p, initial, cfg)
	}
	return consolidateSingle(ctx, p, initial, cfg)
}

// consolidateSingle is the classic single-population genetic search; its
// RNG consumption order is pinned by the deterministic golden tests and
// must not change.
func consolidateSingle(ctx context.Context, p *Problem, initial Assignment, cfg GAConfig) (plan *Plan, err error) {
	h := telemetry.OrNop(p.Hooks)
	ctx, span := telemetry.StartSpanCtx(ctx, p.Hooks, "placement.consolidate",
		telemetry.Int("apps", len(p.Apps)),
		telemetry.Int("servers", len(p.Servers)),
		telemetry.Int("population", cfg.PopulationSize))
	defer span.End()
	var (
		generations = h.Counter("ga_generations_total")
		crossovers  = h.Counter("ga_crossovers_total")
		mutations   = h.Counter("ga_mutations_total")
		offspringC  = h.Counter("ga_offspring_evaluated_total")
		bestScore   = h.Gauge("ga_best_score")
		meanScore   = h.Gauge("ga_mean_score")
		bestServers = h.Gauge("ga_best_feasible_servers")
		staleGauge  = h.Gauge("ga_stagnation_generations")
		genSeconds  = h.Histogram("ga_generation_seconds", nil)
	)

	rng := rand.New(rand.NewSource(cfg.Seed))
	ev := newEvaluator(p)
	sc := ev.acquire()
	defer ev.release(sc)
	var breed grouping // the mutation operators' scratch

	// The initial population is evaluated detached from cancellation:
	// it is the floor every truncated search can still return, and
	// keeping it complete makes best-so-far deterministic per seed.
	seedCtx := context.WithoutCancel(ctx)

	// Seed the population with the initial assignment, optional greedy
	// packings, and mutated copies of the initial assignment.
	pop := make([]*scored, 0, cfg.PopulationSize)
	first, err := ev.score(seedCtx, sc, initial.Clone())
	if err != nil {
		return nil, err
	}
	pop = append(pop, first)
	if cfg.SeedGreedy {
		for _, greedyFn := range []func(context.Context, *Problem) (*Plan, error){FirstFitDecreasing, BestFitDecreasing} {
			plan, err := greedyFn(seedCtx, p)
			if err != nil {
				continue // a greedy failure just means no warm start
			}
			// Re-evaluate through this run's evaluator so the plan
			// shares its cache and tolerance.
			seeded, err := ev.score(seedCtx, sc, plan.Assignment)
			if err != nil {
				return nil, err
			}
			pop = append(pop, seeded)
		}
	}
	for len(pop) < cfg.PopulationSize {
		a := initial.Clone()
		mutate(a, p, rng, &breed)
		c, err := ev.score(seedCtx, sc, a)
		if err != nil {
			return nil, err
		}
		pop = append(pop, c)
	}
	sortPopulation(pop)

	best := bestFeasible(pop)
	stale := 0
	ran := 0
	truncated := false
	for gen := 0; gen < cfg.MaxGenerations && stale < cfg.Stagnation; gen++ {
		// Cheap per-generation degradation check: a cancelled context
		// stops the search at this boundary with whatever has been found
		// so far.
		if ctx.Err() != nil {
			truncated = true
			break
		}
		genStart := time.Now()
		next := make([]*scored, 0, cfg.PopulationSize)
		for i := 0; i < cfg.Elite && i < len(pop); i++ {
			next = append(next, pop[i])
		}
		// Breed serially (the RNG is not safe for concurrent use), then
		// evaluate the offspring in parallel: the simulator replays are
		// the expensive part and are independent of each other.
		offspring := make([]Assignment, 0, cfg.PopulationSize-len(next))
		for len(next)+len(offspring) < cfg.PopulationSize {
			a := crossover(tournament(pop, cfg.TournamentK, rng).assignment,
				tournament(pop, cfg.TournamentK, rng).assignment, rng)
			crossovers.Inc()
			if rng.Float64() < cfg.MutationRate {
				mutate(a, p, rng, &breed)
				mutations.Inc()
			}
			offspring = append(offspring, a)
		}
		children, err := scoreAll(ctx, ev, offspring, 0)
		if err != nil {
			if ctx.Err() != nil {
				// Cancellation mid-generation: discard the partial
				// generation and fall back to the best completed one.
				truncated = true
				break
			}
			return nil, err
		}
		pop = append(next, children...)
		sortPopulation(pop)

		if cand := bestFeasible(pop); cand != nil && (best == nil || cand.score > best.score+1e-12) {
			best = cand
			stale = 0
		} else {
			stale++
		}
		ran++

		generations.Inc()
		offspringC.Add(int64(len(children)))
		staleGauge.Set(float64(stale))
		meanScore.Set(meanScoreOf(pop))
		if best != nil {
			bestScore.Set(best.score)
			bestServers.Set(float64(best.serversUsed))
		}
		genSeconds.Observe(time.Since(genStart).Seconds())
	}
	span.SetAttr(telemetry.Int("generations", ran),
		telemetry.Bool("feasible", best != nil),
		telemetry.Bool("truncated", truncated))
	return finishSearch(ctx, ev, sc, best, ran, truncated, cfg.MaxGenerations, span)
}

// finishSearch turns a search's best candidate into its result: the
// materialised plan, flagged Truncated when the search was cut short,
// or the error for a search that found nothing feasible.
func finishSearch(ctx context.Context, ev *evaluator, sc *scratch, best *scored, ran int, truncated bool, maxGenerations int, span *telemetry.Span) (*Plan, error) {
	if best == nil {
		if truncated {
			return nil, fmt.Errorf("placement: consolidation cancelled after %d generations with no feasible plan: %w", ran, ctx.Err())
		}
		return nil, fmt.Errorf("%w after %d generations", ErrNoFeasible, maxGenerations)
	}
	plan := ev.materialise(sc, best)
	if truncated {
		telemetry.OrNop(ev.p.Hooks).Counter("ga_truncated_total").Inc()
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

// scoreAll scores assignments concurrently, preserving order.
// workers <= 0 selects GOMAXPROCS (island epochs pass their share of the
// cores instead); the evaluator's cache is shared and thread-safe, so
// duplicate groupings are still computed only ~once, and because every
// evaluation is a pure content-keyed function the results are identical
// at any worker count.
func scoreAll(ctx context.Context, ev *evaluator, assignments []Assignment, workers int) ([]*scored, error) {
	out := make([]*scored, len(assignments))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(assignments) {
		workers = len(assignments)
	}
	if workers <= 1 {
		sc := ev.acquire()
		defer ev.release(sc)
		for i, a := range assignments {
			c, err := ev.score(ctx, sc, a)
			if err != nil {
				return nil, err
			}
			out[i] = c
		}
		return out, nil
	}
	errs := make([]error, len(assignments))
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := ev.acquire()
			defer ev.release(sc)
			for i := range jobs {
				out[i], errs[i] = ev.score(ctx, sc, assignments[i])
			}
		}()
	}
	for i := range assignments {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
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
