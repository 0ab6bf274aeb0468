package placement

import (
	"context"
	"math/rand"
	"time"

	"ropus/internal/telemetry"
)

// The genetic search as a deterministic island model.
//
// The population is split into n = max(Islands, 1) subpopulations
// ("islands") that evolve independently, each with its own RNG derived
// deterministically from (Seed, n, island index). Every
// MigrationInterval generations the islands synchronize at a barrier and
// exchange migrants around a ring: the best member of island i replaces
// the worst member of island i+1. Between barriers the islands share no
// mutable state except the evaluator's content-keyed cache, whose
// results are identical no matter which goroutine computes them first —
// so the search outcome is byte-deterministic per (Seed, Islands) at any
// worker count. A ring of one island is the classic single-population
// search: it draws from Seed itself, holds the whole population, and its
// barrier changes nothing.

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
	if islands == 1 {
		return seed // a ring of one draws the classic search's stream
	}
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

// seedRing builds every island's initial population. The initial
// assignment and, on island 0 while it has room, the greedy warm starts
// are scored once and shared; the rest of each island is mutated copies
// of the initial assignment, bred serially on the island's own RNG and
// then scored in one parallel batch. Seeding is detached from ctx's
// cancellation: it is the floor every truncated search can still
// return, and keeping it complete makes best-so-far deterministic per
// seed.
func seedRing(ctx context.Context, ev *evaluator, sc *scratch, initial Assignment, cfg GAConfig, n int) ([]*island, error) {
	p := ev.p
	seedCtx := context.WithoutCancel(ctx)
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
			// Re-evaluate through this run's evaluator so the plan
			// shares its cache and tolerance.
			seeded, err := ev.score(seedCtx, sc, plan.Assignment)
			if err != nil {
				return nil, err
			}
			greedy = append(greedy, seeded)
		}
	}
	islands := make([]*island, n)
	var fill []Assignment
	for i, size := range islandSizes(cfg.PopulationSize, n) {
		isl := &island{rng: rand.New(rand.NewSource(islandSeed(cfg.Seed, n, i))), size: size}
		islands[i] = isl
		isl.pop = append(isl.pop, first)
		if i == 0 {
			for _, gp := range greedy {
				if len(isl.pop) < isl.size {
					isl.pop = append(isl.pop, gp)
				}
			}
		}
		for want := isl.size - len(isl.pop); want > 0; want-- {
			a := initial.Clone()
			mutate(a, p, isl.rng, &isl.breed)
			fill = append(fill, a)
		}
	}
	filled, err := scoreAll(seedCtx, ev, fill, 0)
	if err != nil {
		return nil, err
	}
	for _, isl := range islands {
		k := isl.size - len(isl.pop)
		isl.pop = append(isl.pop, filled[:k]...)
		filled = filled[k:]
		sortPopulation(isl.pop)
		isl.observeBest()
		isl.stale = 0 // seeding is generation zero, not a stagnation tick
	}
	return islands, nil
}

// runEpoch evolves the island for up to gens generations using at most
// workers goroutines for offspring evaluation; only island-local state
// is touched.
func (isl *island) runEpoch(ctx context.Context, ev *evaluator, cfg GAConfig, gens, workers int, tel *gaTelemetry) {
	p := ev.p
	for g := 0; g < gens && !isl.parked(cfg); g++ {
		// Cheap per-generation degradation check: a cancelled context
		// stops the search at this boundary with whatever has been found
		// so far.
		if ctx.Err() != nil {
			isl.truncated = true
			return
		}
		start := time.Now()
		next := make([]*scored, 0, isl.size)
		for i := 0; i < cfg.Elite && i < len(isl.pop); i++ {
			next = append(next, isl.pop[i])
		}
		// Breed serially on the island's own RNG (the stream per island
		// is what the determinism contract pins), then evaluate the
		// offspring in parallel: the simulator replays are the expensive
		// part and are independent of each other.
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
				// Cancellation mid-generation: discard the partial
				// generation and fall back to the best completed one.
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
		tel.generation(isl, len(children), time.Since(start))
	}
}

// observeBest folds the current population into the island's best/stale
// tracking: an improvement must beat the best by more than 1e-12.
func (isl *island) observeBest() {
	if cand := bestFeasible(isl.pop); cand != nil && (isl.best == nil || cand.score > isl.best.score+1e-12) {
		isl.best = cand
		isl.stale = 0
	} else {
		isl.stale++
	}
}

// migrate is the ring barrier. Every island's best member is
// snapshotted first and then replaces its right neighbour's worst
// member, so a migrant travels one hop per barrier regardless of apply
// order. In a ring of one the neighbour is the island itself, which
// already leads with its best, so nothing changes.
func migrate(islands []*island, cfg GAConfig, tel *gaTelemetry) {
	n := len(islands)
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
		tel.migrations.Inc()
	}
	for _, isl := range islands {
		sortPopulation(isl.pop)
		wasParked := isl.parked(cfg)
		isl.observeBest()
		if isl.stale == 0 {
			if wasParked {
				tel.revivals.Inc()
			}
		} else {
			isl.stale-- // the barrier itself is not a generation
		}
	}
}

// gaTelemetry holds the search's metric handles. Counters are atomic,
// so concurrent islands share them; each gauge holds the value of the
// island that finished a generation last. The ring series are nil
// (discarding) for a ring of one, so a one-island search exports the
// classic metric set.
type gaTelemetry struct {
	generations, crossovers, mutations, offspring *telemetry.Counter
	bestScore, meanScore, bestServers, stale      *telemetry.Gauge
	genSeconds                                    *telemetry.Histogram
	migrations, revivals                          *telemetry.Counter
}

func newGATelemetry(h telemetry.Hooks, n int) *gaTelemetry {
	tel := &gaTelemetry{
		generations: h.Counter("ga_generations_total"),
		crossovers:  h.Counter("ga_crossovers_total"),
		mutations:   h.Counter("ga_mutations_total"),
		offspring:   h.Counter("ga_offspring_evaluated_total"),
		bestScore:   h.Gauge("ga_best_score"),
		meanScore:   h.Gauge("ga_mean_score"),
		bestServers: h.Gauge("ga_best_feasible_servers"),
		stale:       h.Gauge("ga_stagnation_generations"),
		genSeconds:  h.Histogram("ga_generation_seconds", nil),
	}
	if n > 1 {
		tel.migrations = h.Counter("ga_migrations_total")
		tel.revivals = h.Counter("ga_island_revivals_total")
		h.Gauge("ga_islands").Set(float64(n))
	}
	return tel
}

// generation records one generation isl finished in took.
func (tel *gaTelemetry) generation(isl *island, children int, took time.Duration) {
	tel.generations.Inc()
	tel.offspring.Add(int64(children))
	tel.stale.Set(float64(isl.stale))
	tel.meanScore.Set(meanScoreOf(isl.pop))
	if isl.best != nil {
		tel.bestScore.Set(isl.best.score)
		tel.bestServers.Set(float64(isl.best.serversUsed))
	}
	tel.genSeconds.Observe(took.Seconds())
}
