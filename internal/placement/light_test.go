package placement

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"ropus/internal/qos"
	"ropus/internal/sim"
)

// Parity and allocation tests for the light scoring path: candidates
// are scored without per-server detail against compact cached records
// and one plan is materialised at the end. The reference below is the
// evaluation as it was before — a fresh validating sim.NewAggregate per
// group, no cache, every ServerUsage built on the spot.

// referencePlan evaluates an assignment from first principles. An
// infeasible server's statistics are Replay at its capacity, the
// measurement a search that ends infeasible does not make.
func referencePlan(t *testing.T, p *Problem, a Assignment) *Plan {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	groups := make([][]int, len(p.Servers))
	for app, s := range a {
		groups[s] = append(groups[s], app)
	}
	plan := &Plan{Assignment: a.Clone(), Usages: make([]ServerUsage, len(p.Servers)), Feasible: true}
	for s, srv := range p.Servers {
		u := ServerUsage{Server: srv, Feasible: true, Value: 1}
		if group := groups[s]; len(group) > 0 {
			u = referenceUsage(t, p, srv, group)
			plan.ServersUsed++
			plan.RequiredTotal += u.Required
			if !u.Feasible {
				plan.Feasible = false
			}
		}
		plan.Usages[s] = u
		plan.Score += u.Value
	}
	return plan
}

func referenceUsage(t *testing.T, p *Problem, srv Server, group []int) ServerUsage {
	t.Helper()
	cfg := sim.Config{Commitment: p.Commitment, SlotsPerDay: p.SlotsPerDay, DeadlineSlots: p.DeadlineSlots}
	u := ServerUsage{Server: srv}
	workloads := make([]sim.Workload, len(group))
	for i, a := range group {
		u.AppIDs = append(u.AppIDs, p.Apps[a].ID)
		workloads[i] = p.Apps[a].Workload
	}
	agg, err := sim.NewAggregate(workloads)
	if err != nil {
		t.Fatal(err)
	}
	out, err := agg.Search(context.Background(), cfg, srv.Capacity(), p.tolerance())
	if err != nil {
		t.Fatal(err)
	}
	u.Required, u.Result, u.Feasible = out.Capacity, out.Result, out.Feasible
	if !out.Feasible { // the search's Result is decided; measure it
		cfg.Capacity = out.Capacity
		if u.Result, err = agg.Replay(cfg); err != nil {
			t.Fatal(err)
		}
		cfg.Capacity = 0
	}
	for _, attr := range p.attrs {
		if u.ExtraRequired == nil {
			u.ExtraRequired = make(map[Attribute]float64)
		}
		var extra []sim.Workload
		for _, a := range group {
			if w, ok := p.Apps[a].Extra[attr]; ok {
				extra = append(extra, w)
			}
		}
		if len(extra) == 0 {
			u.ExtraRequired[attr] = 0
			continue
		}
		agg, err := sim.NewAggregate(extra)
		if err != nil {
			t.Fatal(err)
		}
		req, _, ok, err := agg.RequiredCapacity(context.Background(), cfg, srv.Extra[attr], p.tolerance())
		if err != nil {
			t.Fatal(err)
		}
		u.ExtraRequired[attr] = req
		u.Feasible = u.Feasible && ok
	}
	u.Value = serverValue(u.Utilization(), srv.CPUs, len(group), u.Feasible)
	return u
}

// lightProblem builds a seeded problem with varied traces: a
// zero-demand app, a memory attribute on some apps, two server sizes
// (two shapes share the store) and tight capacity (so infeasible
// servers appear).
func lightProblem(seed int64, apps, servers int, cache *SimCache) *Problem {
	r := rand.New(rand.NewSource(seed))
	const slots = 56
	p := &Problem{
		Commitment:    qos.PoolCommitment{Theta: 0.8, Deadline: time.Hour},
		SlotsPerDay:   4,
		DeadlineSlots: 2,
		Tolerance:     0.05,
		Cache:         cache,
	}
	for i := 0; i < apps; i++ {
		id := fmt.Sprintf("app-%02d", i)
		w := sim.Workload{AppID: id, CoS1: make([]float64, slots), CoS2: make([]float64, slots)}
		if i > 0 { // app 0 demands nothing
			for s := range w.CoS1 {
				w.CoS1[s], w.CoS2[s] = r.Float64(), r.ExpFloat64()*1.5
			}
		}
		a := App{ID: id, Workload: w}
		if i%3 == 1 {
			a.Extra = map[Attribute]sim.Workload{AttrMemory: flatWorkload(id, 1+r.Float64()*6, slots)}
		}
		p.Apps = append(p.Apps, a)
	}
	for i := 0; i < servers; i++ {
		p.Servers = append(p.Servers, Server{
			ID: fmt.Sprintf("srv-%02d", i), CPUs: 4 + 4*(i%2), CPUCapacity: 1,
			Extra: map[Attribute]float64{AttrMemory: 12},
		})
	}
	return p
}

func randomAssignment(r *rand.Rand, apps, servers int) Assignment {
	a := make(Assignment, apps)
	used := 1 + r.Intn(servers) // few-server packings produce multi-app groups
	for i := range a {
		a[i] = r.Intn(used)
	}
	return a
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestLightScoreMatchesMaterialisedPlan scores 1000 random assignments
// and holds, for each, the light score, the materialised plan and the
// public Evaluate to the first-principles reference — with a shared
// cache (filling, then answering from it) and without.
func TestLightScoreMatchesMaterialisedPlan(t *testing.T) {
	const apps, servers = 9, 6
	for _, cached := range []bool{false, true} {
		var cache *SimCache
		if cached {
			cache = NewSimCache(0)
		}
		p := lightProblem(11, apps, servers, cache)
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		ev := newEvaluator(p)
		sc := ev.acquire()
		r := rand.New(rand.NewSource(5))
		infeasible := 0
		for i := 0; i < 1000; i++ {
			a := randomAssignment(r, apps, servers)
			want := referencePlan(t, p, a)
			c := new(scored)
			if err := ev.score(context.Background(), sc, a.Clone(), c); err != nil {
				t.Fatal(err)
			}
			if !sameBits(c.score, want.Score) || c.feasible != want.Feasible ||
				c.serversUsed != want.ServersUsed || !sameBits(c.requiredTotal, want.RequiredTotal) {
				t.Fatalf("cached=%v %v: light score %+v, reference score %v feasible %v servers %d required %v",
					cached, a, *c, want.Score, want.Feasible, want.ServersUsed, want.RequiredTotal)
			}
			got, err := ev.materialise(context.Background(), sc, c)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("cached=%v %v: materialised plan\n%+v\nreference\n%+v", cached, a, got, want)
			}
			if i%50 == 0 { // a fresh evaluator: answers come from the shared cache, if any
				got, err := Evaluate(p, a)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("cached=%v %v: Evaluate\n%+v\nreference\n%+v", cached, a, got, want)
				}
			}
			if !want.Feasible {
				infeasible++
			}
		}
		if infeasible == 0 || infeasible == 1000 {
			t.Errorf("cached=%v: %d of 1000 assignments infeasible; the problem no longer exercises both outcomes", cached, infeasible)
		}
		if cached {
			if s := cache.Stats(); s.Hits == 0 {
				t.Errorf("shared cache never answered: %+v", s)
			}
		}
	}
}

// TestDigestFollowsContent is the stale-digest guard: a cache key must
// describe the samples that are simulated, never the slice they live
// in. An App built over mutated samples — same backing arrays, same ID —
// gets a different digest, misses the entries of the old content, and
// evaluates to what an uncached run computes.
func TestDigestFollowsContent(t *testing.T) {
	cache := NewSimCache(0)
	p := cacheProblem([]float64{2, 3}, 2, 10, cache)
	before, err := Evaluate(p, Assignment{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	oldDigest := p.Apps[0].digest
	if oldDigest == 0 {
		t.Fatal("Validate left the app unprepared")
	}
	if err := p.Validate(); err != nil || p.Apps[0].digest != oldDigest {
		t.Fatalf("re-validating a prepared app changed its digest (err %v)", err)
	}

	// Same arrays, new content, rebuilt App values.
	w := p.Apps[0].Workload
	for i := range w.CoS2 {
		w.CoS2[i] = 4
	}
	p.Apps[0] = App{ID: p.Apps[0].ID, Workload: w}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Apps[0].digest == oldDigest {
		t.Fatal("digest did not follow the samples")
	}
	missesBefore := cache.Stats().Misses
	after, err := Evaluate(p, Assignment{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if cache.Stats().Misses == missesBefore {
		t.Error("changed content was answered from the old content's cache entry")
	}
	uncached := *p
	uncached.Cache = nil
	want, err := Evaluate(&uncached, Assignment{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, want) {
		t.Errorf("plan over changed content\n%+v\nuncached\n%+v", after, want)
	}
	if sameBits(after.RequiredTotal, before.RequiredTotal) {
		t.Errorf("required capacity %v did not move with the demand", after.RequiredTotal)
	}

	// An invalid sample is caught when the App is prepared, which is the
	// only time samples are walked.
	w.CoS2[3] = math.NaN()
	bad := App{ID: w.AppID, Workload: w}
	if err := bad.Prepare(); err == nil {
		t.Error("Prepare accepted a NaN sample")
	}
}

// TestChaosValidateSharedApps validates shallow copies of one Problem —
// unprepared apps in one shared array — from many goroutines, as
// experiments.Mix hands them to concurrent algorithms. Digests must land
// in private copies (the race detector sees a write to the shared array)
// and agree.
func TestChaosValidateSharedApps(t *testing.T) {
	base := lightProblem(21, 8, 4, nil)
	const n = 8
	copies := make([]Problem, n)
	errs := make(chan error, n)
	for i := range copies {
		copies[i] = *base
		go func(p *Problem) { errs <- p.Validate() }(&copies[i])
	}
	for range copies {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for i := range copies {
		for a := range base.Apps {
			if base.Apps[a].digest != 0 {
				t.Fatalf("app %d: Validate wrote into the shared Apps array", a)
			}
			if d := copies[i].Apps[a].digest; d == 0 || d != copies[0].Apps[a].digest {
				t.Fatalf("copy %d app %d: digest %#x, copy 0 has %#x", i, a, d, copies[0].Apps[a].digest)
			}
		}
	}
}

// TestScoreCachedAllocsConstant gates the hit path of a GA step: scoring
// an assignment whose groups are all cached, into a record the caller
// owns, allocates nothing at any pool size.
func TestScoreCachedAllocsConstant(t *testing.T) {
	var counts []float64
	for _, servers := range []int{8, 64, 512} {
		p := lightProblem(3, 24, servers, NewSimCache(0))
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		ev := newEvaluator(p)
		sc := ev.acquire()
		a := randomAssignment(rand.New(rand.NewSource(9)), 24, 8)
		var c scored
		if err := ev.score(context.Background(), sc, a, &c); err != nil {
			t.Fatal(err)
		}
		counts = append(counts, testing.AllocsPerRun(50, func() {
			if err := ev.score(context.Background(), sc, a, &c); err != nil {
				t.Fatal(err)
			}
		}))
	}
	t.Logf("allocations per cached score at 8/64/512 servers: %v", counts)
	for _, n := range counts {
		if n != 0 {
			t.Fatalf("cached score allocates %v objects at 8/64/512 servers; want 0", counts)
		}
	}
}

// TestSimCacheBytesHonest holds the cache's byte accounting to the heap:
// after 100 000 inserts Stats().Bytes must be within 25% of the measured
// growth, so a byte bound admits about what it says.
func TestSimCacheBytesHonest(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates and measures ~25 MB")
	}
	const n = 100_000
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	cache := NewSimCache(1 << 40)
	for i := 0; i < n; i++ {
		k := cacheKey{cfg: 1, server: uint64(i % 2), group: fnvInt(fnvOffset64, i)}
		cache.put(k, 0, groupEval{required: float64(i), feasible: true})
	}
	grown := float64(heap() - before)
	s := cache.Stats()
	if s.Entries != n {
		t.Fatalf("%d entries, want %d", s.Entries, n)
	}
	ratio := float64(s.Bytes) / grown
	t.Logf("accounted %d B, heap grew %.0f B (%.0f B/entry), ratio %.2f", s.Bytes, grown, grown/n, ratio)
	if ratio < 0.75 || ratio > 1.25 {
		t.Errorf("accounted bytes are %.2fx the measured heap growth, want within 25%%", ratio)
	}
	runtime.KeepAlive(cache)
}
