package placement

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

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
	// SeedGreedy adds the first-fit-decreasing and best-fit-decreasing
	// packings to the initial population as warm starts; the search can
	// only improve on them.
	SeedGreedy bool
	// Seed makes the search deterministic.
	Seed int64
}

// DefaultGAConfig returns the configuration used for the case study.
func DefaultGAConfig(seed int64) GAConfig {
	return GAConfig{
		PopulationSize: 32,
		MaxGenerations: 250,
		Stagnation:     40,
		SeedGreedy:     true,
		Seed:           seed,
	}
}

// The fixed operators of the search: the gaElite best assignments are
// copied unchanged into the next generation, each parent wins a
// tournament of gaTournament members, and an offspring is mutated (a
// server emptied or a single app moved) with probability gaMutationProb.
const (
	gaElite        = 2
	gaTournament   = 3
	gaMutationProb = 0.9
)

// minPopulation is the smallest population that holds the elite and
// one bred offspring, and fills a tournament.
const minPopulation = max(gaElite+1, gaTournament)

// Validate checks the GA parameters.
func (c GAConfig) Validate() error {
	switch {
	case c.PopulationSize < minPopulation:
		return fmt.Errorf("placement: PopulationSize %d < %d", c.PopulationSize, minPopulation)
	case c.MaxGenerations < 1:
		return fmt.Errorf("placement: MaxGenerations %d < 1", c.MaxGenerations)
	case c.Stagnation < 1:
		return fmt.Errorf("placement: Stagnation %d < 1", c.Stagnation)
	}
	return nil
}

// Consolidate runs the genetic search from the given initial assignment
// and returns the best feasible plan found. It returns an error if no
// feasible assignment is discovered (including the initial one).
//
// The search is the single population of Figure 5. Offspring are bred
// serially on an RNG seeded with cfg.Seed and only scored in parallel,
// so the plan is byte-deterministic per seed at any GOMAXPROCS.
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
	ctx, span := telemetry.StartSpanCtx(ctx, p.Hooks, "placement.consolidate",
		telemetry.Int("apps", len(p.Apps)),
		telemetry.Int("servers", len(p.Servers)),
		telemetry.Int("population", cfg.PopulationSize))
	defer span.End()
	tel := newGATelemetry(telemetry.OrNop(p.Hooks))

	ev := newEvaluator(p)
	sc := ev.acquire()
	defer ev.release(sc)
	pop, err := seedPopulation(ctx, ev, sc, initial, cfg)
	if err != nil {
		return nil, err
	}

	ran, truncated := 0, false
	for ran < cfg.MaxGenerations && pop.stale < cfg.Stagnation {
		// Cheap per-generation degradation check: a cancelled context
		// stops the search at this boundary with whatever has been found
		// so far.
		if ctx.Err() != nil {
			truncated = true
			break
		}
		start := time.Now()
		children, err := pop.evolve(ctx, ev, cfg, tel)
		if err != nil {
			if ctx.Err() != nil {
				// Cancellation mid-generation: discard the partial
				// generation and fall back to the best completed one.
				truncated = true
				break
			}
			return nil, err
		}
		ran++
		tel.generation(pop, children, time.Since(start))
	}

	span.SetAttr(telemetry.Int("generations", ran),
		telemetry.Bool("feasible", pop.best.feasible),
		telemetry.Bool("truncated", truncated))
	if !pop.best.feasible {
		if truncated {
			return nil, fmt.Errorf("placement: consolidation cancelled after %d generations with no feasible plan: %w", ran, ctx.Err())
		}
		return nil, fmt.Errorf("%w after %d generations", ErrNoFeasible, cfg.MaxGenerations)
	}
	// The plan's assignment outlives the population: callers keep it.
	best := pop.best
	best.assignment = best.assignment.Clone()
	// A record evicted since scoring is computed again, so a truncated
	// search expands its best plan detached from the cancel.
	if plan, err = ev.materialise(context.WithoutCancel(ctx), sc, &best); err != nil {
		return nil, err
	}
	if truncated {
		telemetry.OrNop(p.Hooks).Counter("ga_truncated_total").Inc()
		plan.Truncated = true
	}
	span.SetAttr(telemetry.Int("servers_used", plan.ServersUsed), telemetry.Float("score", plan.Score))
	return plan, nil
}

// population is the search's state between generations: its members
// best-first, the RNG that breeds them, and the best/stale tracker
// behind Figure 5's "little improvement" stop.
//
// Assignments live in two arenas of PopulationSize rows, one row per
// candidate. The members' rows are in rows; evolve breeds the next
// generation into spare, elites copied and children crossed over in
// place, and the two swap (with members and next) once it is scored,
// so a generation cut short leaves the members as they were. The best
// candidate owns a row of its own, outside both arenas, which an
// improvement is copied into.
type population struct {
	rng           *rand.Rand
	members, next []scored
	rows, spare   []int
	apps          int
	// breed is the mutation operators' scratch.
	breed grouping
	// job scores a generation's offspring.
	job *scoreJob
	// best is the best feasible candidate so far (feasible is false
	// until there is one); stale counts generations since it improved.
	best  scored
	stale int
}

// newPopulation allocates a population's arenas and candidate slices
// for cfg.PopulationSize candidates of apps applications.
func newPopulation(ev *evaluator, cfg GAConfig, apps int) *population {
	size := cfg.PopulationSize
	return &population{
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		members: make([]scored, 0, size),
		next:    make([]scored, 0, size),
		rows:    make([]int, size*apps),
		spare:   make([]int, size*apps),
		apps:    apps,
		best:    scored{assignment: make(Assignment, apps)},
		job:     newScoreJob(ev, size),
	}
}

// row returns row i of an arena.
func (pop *population) row(arena []int, i int) Assignment {
	return arena[i*pop.apps : (i+1)*pop.apps : (i+1)*pop.apps]
}

// seedPopulation builds the initial population: the initial assignment
// and, while there is room, the greedy warm starts, then mutated copies
// of the initial assignment bred serially on the seeded RNG and scored
// in one parallel batch. Seeding is detached from ctx's cancellation:
// it is the floor every truncated search can still return, and keeping
// it complete makes best-so-far deterministic per seed.
func seedPopulation(ctx context.Context, ev *evaluator, sc *scratch, initial Assignment, cfg GAConfig) (*population, error) {
	p := ev.p
	seedCtx := context.WithoutCancel(ctx)
	pop := newPopulation(ev, cfg, len(p.Apps))
	pop.members = pop.members[:1]
	first := pop.row(pop.rows, 0)
	copy(first, initial)
	if err := ev.score(seedCtx, sc, first, &pop.members[0]); err != nil {
		return nil, err
	}
	if cfg.SeedGreedy {
		for _, greedyFn := range []func(context.Context, *Problem) (*Plan, error){FirstFitDecreasing, BestFitDecreasing} {
			plan, err := greedyFn(seedCtx, p)
			if err != nil {
				continue // a greedy failure just means no warm start
			}
			// Re-evaluate through this run's evaluator so the plan
			// shares its cache and tolerance.
			var seeded scored
			if err := ev.score(seedCtx, sc, plan.Assignment, &seeded); err != nil {
				return nil, err
			}
			if n := len(pop.members); n < cfg.PopulationSize {
				seeded.assignment = pop.row(pop.rows, n)
				copy(seeded.assignment, plan.Assignment)
				pop.members = append(pop.members, seeded)
			}
		}
	}
	filled := len(pop.members)
	for n := filled; n < cfg.PopulationSize; n++ {
		a := pop.row(pop.rows, n)
		copy(a, initial)
		mutate(a, p, pop.rng, &pop.breed)
		pop.members = append(pop.members, scored{assignment: a})
	}
	if err := pop.job.scoreAll(seedCtx, pop.members[filled:]); err != nil {
		return nil, err
	}
	sortPopulation(pop.members)
	pop.observeBest()
	pop.stale = 0 // seeding is generation zero, not a stagnation tick
	return pop, nil
}

// evolve runs one generation and returns the number of offspring it
// scored. The elite carry over; the rest are bred serially on the
// population's RNG (the stream the determinism contract pins) and then
// scored in parallel, since the simulator replays are the expensive
// part and independent of each other.
func (pop *population) evolve(ctx context.Context, ev *evaluator, cfg GAConfig, tel *gaTelemetry) (int, error) {
	next := pop.next[:0]
	for i := 0; i < gaElite && i < len(pop.members); i++ {
		elite := pop.members[i]
		elite.assignment = pop.row(pop.spare, i)
		copy(elite.assignment, pop.members[i].assignment)
		next = append(next, elite)
	}
	elites := len(next)
	for len(next) < cfg.PopulationSize {
		a := pop.row(pop.spare, len(next))
		crossover(a, tournament(pop.members, gaTournament, pop.rng).assignment,
			tournament(pop.members, gaTournament, pop.rng).assignment, pop.rng)
		tel.crossovers.Inc()
		if pop.rng.Float64() < gaMutationProb {
			mutate(a, ev.p, pop.rng, &pop.breed)
			tel.mutations.Inc()
		}
		next = append(next, scored{assignment: a})
	}
	if err := pop.job.scoreAll(ctx, next[elites:]); err != nil {
		return 0, err
	}
	pop.members, pop.next = next, pop.members
	pop.rows, pop.spare = pop.spare, pop.rows
	sortPopulation(pop.members)
	pop.observeBest()
	return len(next) - elites, nil
}

// observeBest folds the current members into the best/stale tracking:
// an improvement must beat the best by more than 1e-12, and is copied
// into the best's own row, since the member's row is bred over two
// generations on.
func (pop *population) observeBest() {
	if cand := bestFeasible(pop.members); cand != nil && (!pop.best.feasible || cand.score > pop.best.score+1e-12) {
		row := pop.best.assignment
		copy(row, cand.assignment)
		pop.best = *cand
		pop.best.assignment = row
		pop.stale = 0
	} else {
		pop.stale++
	}
}

// gaTelemetry holds the search's metric handles.
type gaTelemetry struct {
	generations, crossovers, mutations, offspring *telemetry.Counter
	bestScore, meanScore, bestServers, stale      *telemetry.Gauge
	genSeconds                                    *telemetry.Histogram
}

func newGATelemetry(h telemetry.Hooks) *gaTelemetry {
	return &gaTelemetry{
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
}

// generation records one generation pop finished in took.
func (tel *gaTelemetry) generation(pop *population, children int, took time.Duration) {
	tel.generations.Inc()
	tel.offspring.Add(int64(children))
	tel.stale.Set(float64(pop.stale))
	tel.meanScore.Set(meanScoreOf(pop.members))
	if pop.best.feasible {
		tel.bestScore.Set(pop.best.score)
		tel.bestServers.Set(float64(pop.best.serversUsed))
	}
	tel.genSeconds.Observe(took.Seconds())
}

// meanScoreOf returns the population's mean consolidation score.
func meanScoreOf(pop []scored) float64 {
	if len(pop) == 0 {
		return 0
	}
	sum := 0.0
	for _, c := range pop {
		sum += c.score
	}
	return sum / float64(len(pop))
}

// scoreJob scores candidates on up to GOMAXPROCS goroutines, each into
// its own record. Its run is bound once, so a generation builds no
// closure; ctx and out are those of the latest scoreAll.
type scoreJob struct {
	ctx  context.Context
	ev   *evaluator
	out  []scored
	errs []error
	run  func(i int)
}

// newScoreJob returns a job for batches of up to size candidates.
func newScoreJob(ev *evaluator, size int) *scoreJob {
	j := &scoreJob{ev: ev, errs: make([]error, size)}
	j.run = j.scoreOne
	return j
}

// scoreOne scores out[i], whose assignment is set, on a borrowed
// scratch.
func (j *scoreJob) scoreOne(i int) {
	sc := j.ev.acquire()
	defer j.ev.release(sc)
	j.errs[i] = j.ev.score(j.ctx, sc, j.out[i].assignment, &j.out[i])
}

// scoreAll scores every candidate of out. The evaluator's cache is
// shared and every evaluation is a pure content-keyed function, so the
// results are identical at any worker count. A dispatch cut short by
// ctx returns ctx's error; a panic in an evaluation is re-raised on the
// caller's goroutine.
func (j *scoreJob) scoreAll(ctx context.Context, out []scored) error {
	j.ctx, j.out = ctx, out
	errs := j.errs[:len(out)]
	clear(errs)
	if done := parallel.ForEach(ctx, 0, len(out), j.run); done < len(out) {
		return fmt.Errorf("placement: scoring cancelled after %d of %d assignments: %w", done, len(out), ctx.Err())
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sortPopulation orders candidates best-score-first, breaking ties in
// favour of feasible ones and fewer servers.
func sortPopulation(pop []scored) {
	slices.SortStableFunc(pop, compareScored)
}

// compareScored is sortPopulation's order: feasible first, then higher
// score, then fewer servers. Scores are compared with != and >, not
// cmp.Compare, which would order a NaN score differently.
func compareScored(a, b scored) int {
	switch {
	case a.feasible != b.feasible:
		if a.feasible {
			return -1
		}
		return 1
	case a.score != b.score:
		if a.score > b.score {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.serversUsed, b.serversUsed)
}

// bestFeasible returns the best feasible candidate in a sorted
// population.
func bestFeasible(pop []scored) *scored {
	for i := range pop {
		if pop[i].feasible {
			return &pop[i]
		}
	}
	return nil
}

// tournament picks the best of k random population members.
func tournament(pop []scored, k int, rng *rand.Rand) *scored {
	best := &pop[rng.Intn(len(pop))]
	for i := 1; i < k; i++ {
		if cand := &pop[rng.Intn(len(pop))]; better(cand, best) {
			best = cand
		}
	}
	return best
}

// better orders two candidates as sortPopulation does on feasibility
// and score, but without its servers-used tie-break: of two tied
// candidates the first one drawn wins the tournament.
func better(a, b *scored) bool {
	if a.feasible != b.feasible {
		return a.feasible
	}
	return a.score > b.score
}

// crossover mates two assignments into dst: each application inherits
// its server from one parent at random (the paper's "straightforward"
// cross-over).
func crossover(dst, a, b Assignment, rng *rand.Rand) {
	for i := range dst {
		if rng.Intn(2) == 0 {
			dst[i] = a[i]
		} else {
			dst[i] = b[i]
		}
	}
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
