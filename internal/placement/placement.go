// Package placement implements the optimizing-search component of the
// workload placement service (paper section VI-B, Figure 5).
//
// A consolidation exercise assigns application workloads (already
// translated into per-CoS allocation traces) to servers so that the
// resource access QoS commitments hold on every server while using as
// few servers as possible. Each candidate assignment is scored with the
// paper's objective:
//
//	+1            for every unused server,
//	f(U) = U^(2Z) for a feasible server with required capacity R,
//	              utilization U = R/L and Z CPUs,
//	-N            for an overbooked server hosting N applications.
//
// A genetic algorithm (ga.go) searches assignments; greedy first-fit-
// decreasing and best-fit-decreasing baselines (greedy.go) provide the
// comparison the paper mentions.
package placement

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"ropus/internal/faultinject"
	"ropus/internal/qos"
	"ropus/internal/sim"
	"ropus/internal/telemetry"
)

// DefaultTolerance is the binary-search tolerance, in CPUs, used for
// required-capacity computations when the Problem does not override it.
const DefaultTolerance = 0.05

// Server describes one resource in the pool.
type Server struct {
	// ID names the server.
	ID string
	// CPUs is Z, the number of CPUs; the score function rewards higher
	// utilization on servers with more CPUs.
	CPUs int
	// CPUCapacity is the capacity of a single CPU in demand units;
	// normally 1.0.
	CPUCapacity float64
	// Extra holds the server's capacity for each additional attribute
	// used by the applications (memory, disk I/O, ...); may be nil when
	// only CPU is managed.
	Extra map[Attribute]float64
}

// Capacity returns the server's total capacity L.
func (s Server) Capacity() float64 { return float64(s.CPUs) * s.CPUCapacity }

// Validate checks the server parameters.
func (s Server) Validate() error {
	if s.ID == "" {
		return errors.New("placement: server needs an ID")
	}
	if s.CPUs <= 0 {
		return fmt.Errorf("placement: server %q needs positive CPUs, got %d", s.ID, s.CPUs)
	}
	if s.CPUCapacity <= 0 || math.IsNaN(s.CPUCapacity) || math.IsInf(s.CPUCapacity, 0) {
		return fmt.Errorf("placement: server %q has bad CPUCapacity %v", s.ID, s.CPUCapacity)
	}
	return nil
}

// App is an application workload to place: its translated per-CoS
// allocation traces for the primary (CPU) attribute, plus optional
// additional capacity attributes (see attributes.go).
type App struct {
	ID       string
	Workload sim.Workload
	// Extra holds per-attribute allocation traces for additional
	// capacity attributes (memory, disk I/O, ...); may be nil.
	Extra map[Attribute]sim.Workload

	// digest is the content hash of the traces above, recorded by
	// Prepare once they have been validated; zero means not prepared.
	digest uint64
	// peak is the primary workload's peak total (CoS1+CoS2)
	// allocation, recorded by Prepare next to the digest.
	peak float64
}

// Prepare validates the application's traces and records their content
// digest, the identity every simulation cache keys on, and the peak
// total the packers order apps by. It makes all three a
// once-per-fleet cost: the digest travels with the App value into every
// Problem built from it (a sub-pool's, a failure scenario's), and
// Problem.Validate prepares only the apps that arrive without one. Call
// it where the App is built and before the value is shared. A
// prepared app's samples must not change afterwards; changed traces
// need a new App value.
func (a *App) Prepare() error {
	if a.digest != 0 {
		return nil
	}
	if err := a.Workload.Validate(); err != nil {
		return err
	}
	attrs := attributeUnion([]App{*a}) // sorted
	for _, attr := range attrs {
		if err := a.Extra[attr].Validate(); err != nil {
			return fmt.Errorf("placement: app %q attribute %q: %w", a.ID, attr, err)
		}
	}
	a.digest = a.contentDigest(attrs)
	a.peak = peakTotal(a.Workload)
	return nil
}

// peakTotal is a workload's peak per-slot CoS1+CoS2 allocation.
func peakTotal(w sim.Workload) float64 {
	peak := 0.0
	for j := range w.CoS1 {
		if t := w.CoS1[j] + w.CoS2[j]; t > peak {
			peak = t
		}
	}
	return peak
}

// contentDigest digests the app's ID and its traces, the extra ones in
// attrs' order; it is never zero, the "not prepared" mark.
func (a *App) contentDigest(attrs []Attribute) uint64 {
	h := fnvString(fnvOffset64, a.ID)
	h = foldSamples(h, a.Workload.CoS1)
	h = foldSamples(h, a.Workload.CoS2)
	for _, attr := range attrs {
		h = fnvString(h, string(attr))
		h = foldSamples(h, a.Extra[attr].CoS1)
		h = foldSamples(h, a.Extra[attr].CoS2)
	}
	return max(h, 1)
}

// Problem is a consolidation exercise: which servers may host which
// translated application workloads under which pool commitment.
type Problem struct {
	Apps    []App
	Servers []Server
	// Commitment is the CoS2 resource access commitment each server
	// must satisfy.
	Commitment qos.PoolCommitment
	// SlotsPerDay is T for the θ statistic.
	SlotsPerDay int
	// DeadlineSlots is the commitment deadline in slots.
	DeadlineSlots int
	// Tolerance for required-capacity bisection; DefaultTolerance if 0.
	Tolerance float64
	// Hooks receives search and simulation telemetry (GA generation
	// progress, evaluator cache efficiency, bisection probes); nil
	// disables it.
	Hooks telemetry.Hooks
	// Inject is the test-only fault injector forwarded to the simulator
	// (points "sim.required_capacity" and "sim.replay", keyed by server
	// ID); nil (the production default) injects nothing. Attaching one
	// also turns off the first-week screen (sim.Aggregate.RebuildScreened):
	// every search runs unscreened.
	Inject faultinject.Injector
	// Cache is an optional evaluation store shared across runs (see
	// NewSimCache): per-(server-shape, app-group) results persist across
	// Consolidate/Evaluate calls and across Problems, keyed by content,
	// so the failure sweep and the planner stop re-solving groups the
	// base plan already solved. Cached reuse is bit-exact, so plans are
	// identical with or without it. Without one, or while Inject is set
	// (no injected outcome may reach another run), each evaluation run
	// gets a private store.
	Cache *SimCache

	// attrs caches the sorted union of extra attributes; set by
	// Validate.
	attrs []Attribute
}

// Validate checks the problem's structural invariants and prepares
// (see App.Prepare) every application that is not prepared yet, in
// which case p.Apps is replaced by a copy holding the digests.
func (p *Problem) Validate() error {
	if len(p.Apps) == 0 {
		return errors.New("placement: no applications")
	}
	if len(p.Servers) == 0 {
		return errors.New("placement: no servers")
	}
	seenApp := make(map[string]bool, len(p.Apps))
	n := -1
	owned := false
	for i := range p.Apps {
		if p.Apps[i].digest == 0 && !owned {
			// Digests go into a private copy, so shallow Problem copies
			// sharing one Apps array may validate concurrently.
			p.Apps = append([]App(nil), p.Apps...)
			owned = true
		}
		a := &p.Apps[i]
		if err := a.Prepare(); err != nil {
			return err
		}
		if a.ID == "" || a.ID != a.Workload.AppID {
			return fmt.Errorf("placement: app ID %q must match workload ID %q", a.ID, a.Workload.AppID)
		}
		if seenApp[a.ID] {
			return fmt.Errorf("placement: duplicate app %q", a.ID)
		}
		seenApp[a.ID] = true
		if n < 0 {
			n = len(a.Workload.CoS1)
		} else if len(a.Workload.CoS1) != n {
			return fmt.Errorf("placement: app %q has %d slots, want %d", a.ID, len(a.Workload.CoS1), n)
		}
	}
	seenSrv := make(map[string]bool, len(p.Servers))
	for _, s := range p.Servers {
		if err := s.Validate(); err != nil {
			return err
		}
		if seenSrv[s.ID] {
			return fmt.Errorf("placement: duplicate server %q", s.ID)
		}
		seenSrv[s.ID] = true
	}
	if p.SlotsPerDay <= 0 {
		return fmt.Errorf("placement: SlotsPerDay %d <= 0", p.SlotsPerDay)
	}
	if p.DeadlineSlots < 0 {
		return fmt.Errorf("placement: DeadlineSlots %d < 0", p.DeadlineSlots)
	}
	if p.Tolerance < 0 {
		return fmt.Errorf("placement: Tolerance %v < 0", p.Tolerance)
	}
	if err := validateAttributes(p); err != nil {
		return err
	}
	p.attrs = attributeUnion(p.Apps)
	return p.Commitment.Validate()
}

// tolerance returns the effective bisection tolerance.
func (p *Problem) tolerance() float64 {
	if p.Tolerance > 0 {
		return p.Tolerance
	}
	return DefaultTolerance
}

// Assignment maps each application (by index into Problem.Apps) to a
// server (an index into Problem.Servers).
type Assignment []int

// Validate checks the assignment against the problem dimensions.
func (a Assignment) Validate(p *Problem) error {
	if len(a) != len(p.Apps) {
		return fmt.Errorf("placement: assignment covers %d apps, want %d", len(a), len(p.Apps))
	}
	for i, s := range a {
		if s < 0 || s >= len(p.Servers) {
			return fmt.Errorf("placement: app %d assigned to invalid server %d", i, s)
		}
	}
	return nil
}

// Clone copies the assignment.
func (a Assignment) Clone() Assignment {
	out := make(Assignment, len(a))
	copy(out, a)
	return out
}

// ServerUsage reports the evaluation of one server under an assignment.
type ServerUsage struct {
	Server Server
	// AppIDs hosted on this server, in problem order.
	AppIDs []string
	// Required is the required capacity found by the simulator; it is
	// capped at the server's capacity when the workloads do not fit.
	Required float64
	// Feasible reports whether the commitments are satisfied within the
	// server's capacity, across every managed attribute.
	Feasible bool
	// Value is this server's contribution to the consolidation score.
	Value float64
	// Result is the simulator outcome at the reported capacity (primary
	// attribute).
	Result sim.Result
	// ExtraRequired is the required capacity per additional attribute.
	ExtraRequired map[Attribute]float64
}

// Utilization returns R/L for the server.
func (u ServerUsage) Utilization() float64 {
	c := u.Server.Capacity()
	if c == 0 {
		return 0
	}
	return u.Required / c
}

// Plan is an evaluated assignment.
type Plan struct {
	Assignment Assignment
	Usages     []ServerUsage
	// Score is the consolidation objective (higher is better).
	Score float64
	// Feasible reports whether every used server satisfies the
	// commitments.
	Feasible bool
	// ServersUsed counts servers hosting at least one application.
	ServersUsed int
	// RequiredTotal is the sum of per-server required capacities over
	// used servers (the paper's ΣC_requ).
	RequiredTotal float64
	// Truncated reports that the search producing this plan was cancelled
	// (context or time budget) and the plan is the best found so far, not
	// the converged optimum.
	Truncated bool
}

// serverValue implements the per-server score contribution: +1 for an
// unused server, -N for an overbooked one, and the paper's f(U) = U^(2Z)
// for a feasible server. The squared term exaggerates high utilizations
// and the Z term demands that servers with more CPUs run hotter
// (motivated by the open-network response time estimate 1/(1-U^Z)).
func serverValue(u float64, z, nApps int, feasible bool) float64 {
	if nApps == 0 {
		return 1
	}
	if !feasible {
		return -float64(nApps)
	}
	return math.Pow(u, 2*float64(z))
}

// groupEval is the compact outcome of simulating one app group on one
// server shape: what a ServerUsage holds minus the server and the app
// IDs, which whoever asks already knows. It is the record the
// evaluation store (SimCache) holds.
type groupEval struct {
	required float64
	value    float64
	feasible bool
	// screened marks a record whose primary search ended infeasible,
	// whether the first-week screen (sim.Aggregate.RebuildScreened) or
	// the search (sim.Aggregate.Search) decided it: required is the
	// server's capacity and there is no sim.Result, since an infeasible
	// search's is decided, not measured. materialise replays the group
	// at the capacity for the statistics of a plan that ships it.
	screened bool
	result   sim.Result
	extra    map[Attribute]float64
}

// emptyEval is the record of a server that hosts nothing.
var emptyEval = groupEval{feasible: true, value: 1}

// scratch is one goroutine's working memory for scoring assignments:
// the per-server grouping of the assignment at hand, and the workload
// list a cache miss gathers its group into. It belongs to the evaluator
// that handed it out and dies with it; a process-wide pool would keep
// traces alive past their job. The slot buffers the group is summed
// into come from aggPool instead.
type scratch struct {
	groups    grouping
	workloads []sim.Workload
}

// aggPool lends the aggregate (two slot buffers) a group is summed into,
// across evaluators: each of a plan's failure-scenario consolidations
// builds a fresh evaluator, which would otherwise allocate the buffers
// anew. An Aggregate holds sums, not traces, so pooling it process-wide
// keeps no job's data alive. It is taken only where a group is
// computed, never on a store hit.
var aggPool = sync.Pool{New: func() any { return new(sim.Aggregate) }}

// evaluator evaluates assignments against a problem through one
// evaluation store: the GA revisits the same app groupings constantly,
// so most evaluations are lookups. It is safe for concurrent use;
// simulations run outside the store's locks and are deduplicated through
// its per-shard in-flight tables (singleflight style), so each group is
// computed once no matter how many goroutines — of this run, or of any
// other run on the same store — ask for it.
type evaluator struct {
	p *Problem

	// store is Problem.Cache or a private store, and run, numbered by
	// the store, tags the records this evaluator computes or reuses. The
	// key lanes are precomputed so a key is a few integer folds: cfgSig
	// for the problem, and per server the server lane of its keys.
	store      *SimCache
	run        uint64
	cfgSig     uint64
	serverSigs []uint64

	// hitC/missC count this run's lookups against its store (a
	// singleflight waiter is a hit); sharedHitC/sharedMissC count the
	// lookups answered by another run's record, and the computations.
	hitC, missC             *telemetry.Counter
	sharedHitC, sharedMissC *telemetry.Counter
	evictC                  *telemetry.Counter

	// free holds the scratch not in use; see acquire.
	freeMu sync.Mutex
	free   []*scratch
}

func newEvaluator(p *Problem) *evaluator {
	h := telemetry.OrNop(p.Hooks)
	e := &evaluator{
		p:           p,
		store:       p.Cache,
		cfgSig:      hashConfig(p),
		serverSigs:  make([]uint64, len(p.Servers)),
		hitC:        h.Counter("placement_eval_cache_hits_total"),
		missC:       h.Counter("placement_eval_cache_misses_total"),
		sharedHitC:  h.Counter("placement_shared_cache_hits_total"),
		sharedMissC: h.Counter("placement_shared_cache_misses_total"),
		evictC:      h.Counter("placement_shared_cache_evictions_total"),
	}
	if e.store == nil || p.Inject != nil {
		e.store = NewSimCache(0)
	}
	e.run = e.store.runs.Add(1)
	for i, s := range p.Servers {
		e.serverSigs[i] = hashServerShape(s, p.attrs)
		if p.Inject != nil {
			// Injection points are keyed by server ID (sim.Config.InjectKey),
			// so each record of an injecting run belongs to one server.
			e.serverSigs[i] = fnvString(e.serverSigs[i], s.ID)
		}
	}
	return e
}

// acquire lends the calling goroutine a scratch until it calls release,
// so a search allocates one per concurrent scorer, not per generation.
func (e *evaluator) acquire() *scratch {
	e.freeMu.Lock()
	defer e.freeMu.Unlock()
	if n := len(e.free); n > 0 {
		sc := e.free[n-1]
		e.free = e.free[:n-1]
		return sc
	}
	return new(scratch)
}

func (e *evaluator) release(sc *scratch) {
	e.freeMu.Lock()
	e.free = append(e.free, sc)
	e.freeMu.Unlock()
}

// evalServer returns the record of the given apps on the given server,
// read from the store or simulated. The apps slice must be sorted
// ascending. Concurrent calls for the same group, from any run on the
// store, share one computation; waiters give up when ctx is cancelled.
func (e *evaluator) evalServer(ctx context.Context, sc *scratch, server int, apps []int) (groupEval, error) {
	if len(apps) == 0 {
		return emptyEval, nil
	}
	k := cacheKey{cfg: e.cfgSig, server: e.serverSigs[server], group: hashGroup(e.p.Apps, apps)}
	sh := e.store.shard(k)
	for {
		sh.mu.Lock()
		if ev, reused, ok := sh.get(k, e.run); ok {
			sh.mu.Unlock()
			e.hit(reused)
			return ev, nil
		}
		fl, computing := sh.inflight[k]
		if !computing {
			sh.inflight[k] = nil
			sh.mu.Unlock()
			return e.lead(ctx, sc, sh, k, server, apps)
		}
		if fl == nil {
			fl = &inflightEval{done: make(chan struct{})}
			sh.inflight[k] = fl
		}
		sh.mu.Unlock()
		select {
		case <-fl.done:
			if fl.err == nil {
				e.hit(fl.run != e.run)
				return fl.eval, nil
			}
			// The leader failed and stored nothing. Its error may be its own
			// ctx's, so a waiter does not inherit it: it computes the group
			// under its own ctx, unless that is done too.
			if ctx.Err() == nil {
				continue
			}
		case <-ctx.Done():
		}
		return groupEval{}, fmt.Errorf("placement: evaluate server %q: %w", e.p.Servers[server].ID, ctx.Err())
	}
}

// hit counts a lookup answered without computing; reused marks this
// run's first use of a record another run computed or used last, which
// is also reuse across runs.
func (e *evaluator) hit(reused bool) {
	e.hitC.Inc()
	if reused {
		e.store.hits.Add(1)
		e.sharedHitC.Inc()
	}
}

// errLeaderPanicked is what the waiters on a group see when the
// goroutine computing it panicked.
var errLeaderPanicked = errors.New("placement: group evaluation panicked")

// lead computes the group the calling goroutine claimed under key k,
// stores it on success and hands the outcome to any waiters. The
// hand-off is deferred so that it also runs when the computation panics:
// the worker pool re-raises that panic only after every in-flight
// evaluation returns, and a waiter left blocked would stall it forever.
func (e *evaluator) lead(ctx context.Context, sc *scratch, sh *cacheShard, k cacheKey, server int, apps []int) (ev groupEval, err error) {
	e.missC.Inc()
	e.sharedMissC.Inc()
	e.store.misses.Add(1)
	err = errLeaderPanicked
	defer func() {
		sh.mu.Lock()
		fl := sh.inflight[k]
		delete(sh.inflight, k)
		if err == nil {
			e.evictC.Add(int64(e.store.insert(sh, k, e.run, &ev)))
		}
		sh.mu.Unlock()
		if fl != nil {
			fl.run, fl.eval, fl.err = e.run, ev, err
			close(fl.done)
		}
	}()
	return e.computeServer(ctx, sc, server, apps)
}

// computeServer runs the simulator for one (server, app-group) pair.
func (e *evaluator) computeServer(ctx context.Context, sc *scratch, server int, apps []int) (groupEval, error) {
	srv := e.p.Servers[server]
	ev, err := e.searchPrimary(ctx, sc, server, apps)
	if err != nil {
		return groupEval{}, err
	}
	extra, extraOK, err := e.evalAttributes(ctx, sc, srv, apps)
	if err != nil {
		return groupEval{}, err
	}
	ev.feasible = ev.feasible && extraOK
	ev.extra = extra
	ev.value = serverValue(ev.required/srv.Capacity(), srv.CPUs, len(apps), ev.feasible)
	return ev, nil
}

// simConfig is the replay configuration for simulations on srv.
func (e *evaluator) simConfig(srv Server) sim.Config {
	return sim.Config{
		Commitment:    e.p.Commitment,
		SlotsPerDay:   e.p.SlotsPerDay,
		DeadlineSlots: e.p.DeadlineSlots,
		Hooks:         e.p.Hooks,
		Inject:        e.p.Inject,
		InjectKey:     srv.ID,
	}
}

// searchPrimary runs the primary-attribute required-capacity search for
// a sorted app group on a server.
//
// A group whose first week already overbooks the server is rejected
// before the rest of its trace is summed. Its record, like that of any
// search that ends infeasible, is required = capacity, infeasible, no
// statistics, and marked screened. A run with a fault injector keeps
// the search's own Result, which is then measured in full.
func (e *evaluator) searchPrimary(ctx context.Context, sc *scratch, server int, apps []int) (groupEval, error) {
	srv := e.p.Servers[server]
	e.gather(sc, apps)
	cfg := e.simConfig(srv)
	agg := aggPool.Get().(*sim.Aggregate)
	defer aggPool.Put(agg)
	rejected, err := agg.RebuildScreened(sc.workloads, cfg, srv.Capacity())
	if err != nil {
		return groupEval{}, err
	}
	if rejected {
		return groupEval{required: srv.Capacity(), screened: true}, nil
	}
	out, err := agg.Search(ctx, cfg, srv.Capacity(), e.p.tolerance())
	if err != nil {
		return groupEval{}, err
	}
	if !out.Feasible && e.p.Inject == nil {
		return groupEval{required: out.Capacity, screened: true}, nil
	}
	return groupEval{required: out.Capacity, feasible: out.Feasible, result: out.Result}, nil
}

// gather lists the apps' workloads in sc, in ascending app order. The
// traces were validated when their App was prepared.
func (e *evaluator) gather(sc *scratch, apps []int) {
	sc.workloads = sc.workloads[:0]
	for _, a := range apps {
		sc.workloads = append(sc.workloads, e.p.Apps[a].Workload)
	}
}

// replayStats is the sim.Result a screened record lacks: the group
// replayed at the server's capacity, which is what the Result of an
// infeasible search measured in full always was.
func (e *evaluator) replayStats(sc *scratch, server int, apps []int) (sim.Result, error) {
	e.gather(sc, apps)
	agg := aggPool.Get().(*sim.Aggregate)
	defer aggPool.Put(agg)
	if err := agg.Rebuild(sc.workloads); err != nil {
		return sim.Result{}, err
	}
	cfg := e.simConfig(e.p.Servers[server])
	cfg.Capacity = e.p.Servers[server].Capacity()
	return agg.Replay(cfg)
}

// scored is one candidate of a search: an assignment with its objective
// and nothing per server. The searches rank and breed these; only the
// plan a search returns is expanded (see materialise).
type scored struct {
	assignment    Assignment
	score         float64
	feasible      bool
	serversUsed   int
	requiredTotal float64
}

// score evaluates the objective of a full assignment into c, which
// keeps a (callers hand over a slice nobody mutates while c is in use):
// with every group stored, one grouping pass and one store read per
// used server.
func (e *evaluator) score(ctx context.Context, sc *scratch, a Assignment, c *scored) error {
	if err := a.Validate(e.p); err != nil {
		return err
	}
	groupByServer(a, len(e.p.Servers), &sc.groups)
	*c = scored{assignment: a, feasible: true}
	for s := range e.p.Servers {
		group := sc.groups.of(s)
		ev, err := e.evalServer(ctx, sc, s, group)
		if err != nil {
			return err
		}
		c.score += ev.value
		if len(group) > 0 {
			c.serversUsed++
			c.requiredTotal += ev.required
			if !ev.feasible {
				c.feasible = false
			}
		}
	}
	return nil
}

// materialise expands a candidate this evaluator scored into the full
// Plan with per-server usages and app IDs. The records come from the
// store; one evicted since the candidate was scored is computed again,
// to the same bytes. A screened record's statistics are a replay at the
// server's capacity.
func (e *evaluator) materialise(ctx context.Context, sc *scratch, c *scored) (*Plan, error) {
	groupByServer(c.assignment, len(e.p.Servers), &sc.groups)
	plan := &Plan{
		Assignment:    c.assignment,
		Usages:        make([]ServerUsage, len(e.p.Servers)),
		Score:         c.score,
		Feasible:      c.feasible,
		ServersUsed:   c.serversUsed,
		RequiredTotal: c.requiredTotal,
	}
	for s, srv := range e.p.Servers {
		group := sc.groups.of(s)
		if len(group) == 0 {
			plan.Usages[s] = ServerUsage{Server: srv, Feasible: true, Value: 1}
			continue
		}
		ev, err := e.evalServer(ctx, sc, s, group)
		if err == nil && ev.screened {
			ev.result, err = e.replayStats(sc, s, group)
		}
		if err != nil {
			return nil, err
		}
		ids := make([]string, len(group))
		for i, a := range group {
			ids[i] = e.p.Apps[a].ID
		}
		plan.Usages[s] = ServerUsage{
			Server:        srv,
			AppIDs:        ids,
			Required:      ev.required,
			Feasible:      ev.feasible,
			Value:         ev.value,
			Result:        ev.result,
			ExtraRequired: ev.extra,
		}
	}
	return plan, nil
}

// evaluate scores a full assignment and expands it into a Plan.
func (e *evaluator) evaluate(ctx context.Context, a Assignment) (*Plan, error) {
	sc := e.acquire()
	defer e.release(sc)
	var c scored
	if err := e.score(ctx, sc, a.Clone(), &c); err != nil {
		return nil, err
	}
	return e.materialise(ctx, sc, &c)
}

// grouping is the reusable inverse of an assignment: server s hosts
// apps[start[s]:start[s+1]], in ascending app index. used and weights
// are the mutation operators' scratch (see ga.go).
type grouping struct {
	start, apps []int
	used        []int
	weights     []float64
}

// of returns server s's sorted app-index group; it is valid until the
// next groupByServer into the same grouping.
func (g *grouping) of(s int) []int { return g.apps[g.start[s]:g.start[s+1]] }

// groupByServer inverts an assignment into per-server sorted app-index
// groups, by a counting sort into g's buffers.
func groupByServer(a Assignment, servers int, g *grouping) {
	if cap(g.start) < servers+1 {
		g.start = make([]int, servers+1)
	}
	if cap(g.apps) < len(a) {
		g.apps = make([]int, len(a))
	}
	start, apps := g.start[:servers+1], g.apps[:len(a)]
	g.start, g.apps = start, apps
	clear(start)
	for _, s := range a {
		start[s+1]++
	}
	for s := 0; s < servers; s++ {
		start[s+1] += start[s]
	}
	// Filling in app order leaves every group ascending and advances
	// start[s] to the group's end, which is the next group's start.
	for app, s := range a {
		apps[start[s]] = app
		start[s]++
	}
	copy(start[1:], start[:servers])
	start[0] = 0
}

// Evaluate scores an assignment against a problem without searching. A
// single evaluation is cheap relative to the searches, so it takes no
// context; use the searching entry points for cancellable work.
func Evaluate(p *Problem, a Assignment) (*Plan, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return newEvaluator(p).evaluate(context.Background(), a)
}

// OneAppPerServer returns the trivial assignment placing application i
// on server i; it requires at least as many servers as applications and
// is the usual starting configuration for a consolidation exercise.
func OneAppPerServer(p *Problem) (Assignment, error) {
	if len(p.Servers) < len(p.Apps) {
		return nil, fmt.Errorf("placement: need %d servers for one-app-per-server, have %d",
			len(p.Apps), len(p.Servers))
	}
	a := make(Assignment, len(p.Apps))
	for i := range a {
		a[i] = i
	}
	return a, nil
}
