package placement

import (
	"context"
	"math/rand"
	"runtime"

	"ropus/internal/parallel"
	"ropus/internal/telemetry"
)

// Deterministic island-model genetic search (GAConfig.Islands > 1).
//
// The population is split into Islands subpopulations ("islands") that
// evolve independently, each with its own RNG derived deterministically
// from (Seed, island index). Every MigrationInterval generations the
// islands synchronize at a barrier and exchange migrants around a ring:
// the best member of island i replaces the worst member of island i+1.
// Between barriers the islands share no mutable state except the
// evaluator's content-keyed cache, whose results are identical no
// matter which goroutine computes them first — so the search outcome is
// byte-deterministic per (Seed, Islands) at any worker count, while a
// single consolidation now scales across cores instead of only the
// offspring evaluations inside one generation.

// DefaultMigrationInterval is the generations-between-migrations used
// when GAConfig.MigrationInterval is zero.
const DefaultMigrationInterval = 10

// migrationInterval resolves the configured interval.
func (c GAConfig) migrationInterval() int {
	if c.MigrationInterval > 0 {
		return c.MigrationInterval
	}
	return DefaultMigrationInterval
}

// islandSeed derives island i's RNG seed from the search seed with an
// FNV-1a fold, so per-island streams are decorrelated but fixed by
// (seed, islands, i).
func islandSeed(seed int64, islands, i int) int64 {
	h := uint64(fnvOffset64)
	h = fnvU64(h, uint64(seed))
	h = fnvInt(h, islands)
	h = fnvInt(h, i)
	return int64(h)
}

// islandSizes splits a population across n islands: every island gets
// size/n members and the first size%n islands get one extra.
func islandSizes(size, n int) []int {
	sizes := make([]int, n)
	base, extra := size/n, size%n
	for i := range sizes {
		sizes[i] = base
		if i < extra {
			sizes[i]++
		}
	}
	return sizes
}

// island is one subpopulation plus its private evolution state.
type island struct {
	idx  int
	rng  *rand.Rand
	pop  []*scored
	size int
	// breed is the mutation operators' scratch; islands breed
	// concurrently, so each has its own.
	breed grouping

	// best is the island's best feasible candidate so far; stale counts
	// generations since it improved. An island with stale >= Stagnation
	// is parked: it stops breeding but stays in the migration ring and
	// revives when a migrant improves its best.
	best  *scored
	stale int

	ran       int  // generations actually run
	truncated bool // stopped early on ctx
	err       error
}

// parked reports whether the island has stagnated.
func (isl *island) parked(cfg GAConfig) bool { return isl.stale >= cfg.Stagnation }

// runEpoch evolves the island for up to gens generations using at most
// workers goroutines for offspring evaluation. It mirrors the
// single-population generation loop; only island-local state is touched.
func (isl *island) runEpoch(ctx context.Context, ev *evaluator, cfg GAConfig, gens, workers int, tel *islandTelemetry) {
	p := ev.p
	for g := 0; g < gens && !isl.parked(cfg); g++ {
		if ctx.Err() != nil {
			isl.truncated = true
			return
		}
		next := make([]*scored, 0, isl.size)
		for i := 0; i < cfg.Elite && i < len(isl.pop); i++ {
			next = append(next, isl.pop[i])
		}
		// Breed serially on the island's own RNG (the stream per island
		// is what the determinism contract pins), then evaluate the
		// offspring on this island's share of the worker pool.
		offspring := make([]Assignment, 0, isl.size-len(next))
		for len(next)+len(offspring) < isl.size {
			a := crossover(tournament(isl.pop, cfg.TournamentK, isl.rng).assignment,
				tournament(isl.pop, cfg.TournamentK, isl.rng).assignment, isl.rng)
			tel.crossovers.Inc()
			if isl.rng.Float64() < cfg.MutationRate {
				mutate(a, p, isl.rng, &isl.breed)
				tel.mutations.Inc()
			}
			offspring = append(offspring, a)
		}
		children, err := scoreAll(ctx, ev, offspring, workers)
		if err != nil {
			if ctx.Err() != nil {
				isl.truncated = true
				return
			}
			isl.err = err
			return
		}
		isl.pop = append(next, children...)
		sortPopulation(isl.pop)
		isl.observeBest()
		isl.ran++
		tel.generations.Inc()
		tel.offspring.Add(int64(len(children)))
	}
}

// observeBest folds the current population into the island's best/stale
// tracking, using the same improvement threshold as the single search.
func (isl *island) observeBest() {
	if cand := bestFeasible(isl.pop); cand != nil && (isl.best == nil || cand.score > isl.best.score+1e-12) {
		isl.best = cand
		isl.stale = 0
	} else {
		isl.stale++
	}
}

// islandTelemetry groups the counters the epochs share; all counters are
// atomic, so concurrent islands may increment them freely.
type islandTelemetry struct {
	generations *telemetry.Counter
	crossovers  *telemetry.Counter
	mutations   *telemetry.Counter
	offspring   *telemetry.Counter
}

// consolidateIslands runs the island-model search. Inputs are already
// validated by Consolidate.
func consolidateIslands(ctx context.Context, p *Problem, initial Assignment, cfg GAConfig) (*Plan, error) {
	n := cfg.Islands
	h := telemetry.OrNop(p.Hooks)
	ctx, span := telemetry.StartSpanCtx(ctx, p.Hooks, "placement.consolidate",
		telemetry.Int("apps", len(p.Apps)),
		telemetry.Int("servers", len(p.Servers)),
		telemetry.Int("population", cfg.PopulationSize),
		telemetry.Int("islands", n))
	defer span.End()
	tel := &islandTelemetry{
		generations: h.Counter("ga_generations_total"),
		crossovers:  h.Counter("ga_crossovers_total"),
		mutations:   h.Counter("ga_mutations_total"),
		offspring:   h.Counter("ga_offspring_evaluated_total"),
	}
	migrationsC := h.Counter("ga_migrations_total")
	revivalsC := h.Counter("ga_island_revivals_total")
	h.Gauge("ga_islands").Set(float64(n))

	ev := newEvaluator(p)
	sc := ev.acquire()
	defer ev.release(sc)
	// Like the single search, the initial populations are evaluated
	// detached from cancellation: they are the floor every truncated
	// search can still return.
	seedCtx := context.WithoutCancel(ctx)

	// Seed every island. The shared warm starts (the initial assignment
	// and, on island 0, the greedy packings) are evaluated once; the
	// remaining members are mutated copies of the initial assignment
	// bred on each island's own RNG. All assignments are bred serially
	// (island by island) and then evaluated in one parallel batch so
	// seeding cost does not grow with the island count.
	sizes := islandSizes(cfg.PopulationSize, n)
	islands := make([]*island, n)
	first, err := ev.score(seedCtx, sc, initial.Clone())
	if err != nil {
		return nil, err
	}
	var greedy []*scored
	if cfg.SeedGreedy {
		for _, greedyFn := range []func(context.Context, *Problem) (*Plan, error){FirstFitDecreasing, BestFitDecreasing} {
			plan, err := greedyFn(seedCtx, p)
			if err != nil {
				continue // a greedy failure just means no warm start
			}
			seeded, err := ev.score(seedCtx, sc, plan.Assignment)
			if err != nil {
				return nil, err
			}
			greedy = append(greedy, seeded)
		}
	}
	var fill []Assignment // every island's mutants, bred serially
	fillOf := make([][2]int, n)
	for i := 0; i < n; i++ {
		isl := &island{idx: i, rng: rand.New(rand.NewSource(islandSeed(cfg.Seed, n, i))), size: sizes[i]}
		islands[i] = isl
		isl.pop = append(isl.pop, first)
		if i == 0 {
			for _, gp := range greedy {
				if len(isl.pop) < isl.size {
					isl.pop = append(isl.pop, gp)
				}
			}
		}
		start := len(fill)
		for want := isl.size - len(isl.pop); want > 0; want-- {
			a := initial.Clone()
			mutate(a, p, isl.rng, &isl.breed)
			fill = append(fill, a)
		}
		fillOf[i] = [2]int{start, len(fill)}
	}
	filled, err := scoreAll(seedCtx, ev, fill, 0)
	if err != nil {
		return nil, err
	}
	for i, isl := range islands {
		lo, hi := fillOf[i][0], fillOf[i][1]
		isl.pop = append(isl.pop, filled[lo:hi]...)
		sortPopulation(isl.pop)
		isl.observeBest()
		isl.stale = 0 // seeding is generation zero, not a stagnation tick
	}

	// Each epoch runs every unparked island MigrationInterval further
	// generations in parallel, then migrates at the barrier. Workers are
	// split so each island's offspring evaluations get an even share of
	// the cores.
	interval := cfg.migrationInterval()
	islandWorkers := runtime.GOMAXPROCS(0) / n
	if islandWorkers < 1 {
		islandWorkers = 1
	}
	totalGens := 0
	truncated := false
	epochs := 0
	for totalGens < cfg.MaxGenerations {
		gens := interval
		if rest := cfg.MaxGenerations - totalGens; gens > rest {
			gens = rest
		}
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
			islands[i].runEpoch(ctx, ev, cfg, gens, islandWorkers, tel)
		})
		epochs++
		for _, isl := range islands {
			if isl.err != nil {
				return nil, isl.err
			}
			if isl.truncated {
				truncated = true
			}
		}
		totalGens += gens
		if truncated {
			break
		}

		// Migration barrier: snapshot every island's best member first,
		// then replace each right neighbour's worst member, so a migrant
		// travels one hop per barrier regardless of apply order.
		migrants := make([]*scored, n)
		for i, isl := range islands {
			migrants[i] = isl.pop[0]
		}
		for i := range islands {
			recv := islands[(i+1)%n]
			if migrants[i] == recv.pop[0] {
				continue // the ring neighbour already leads with it
			}
			recv.pop[len(recv.pop)-1] = migrants[i]
			migrationsC.Inc()
		}
		for _, isl := range islands {
			sortPopulation(isl.pop)
			wasParked := isl.parked(cfg)
			isl.observeBest()
			if isl.stale == 0 {
				if wasParked {
					revivalsC.Inc()
				}
			} else {
				isl.stale-- // the barrier itself is not a generation
			}
		}
	}

	// The global best is collected deterministically in island order
	// with the single search's improvement threshold, so ties go to the
	// lowest island index.
	var best *scored
	for _, isl := range islands {
		if isl.best != nil && (best == nil || isl.best.score > best.score+1e-12) {
			best = isl.best
		}
	}
	ran := 0
	for _, isl := range islands {
		if isl.ran > ran {
			ran = isl.ran
		}
	}
	span.SetAttr(telemetry.Int("generations", ran),
		telemetry.Int("epochs", epochs),
		telemetry.Bool("feasible", best != nil),
		telemetry.Bool("truncated", truncated))
	return finishSearch(ctx, ev, sc, best, ran, truncated, cfg.MaxGenerations, span)
}
