package placement

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ropus/internal/faultinject"
	"ropus/internal/qos"
	"ropus/internal/sim"
	"ropus/internal/telemetry"
)

// TestCacheKeyCollisionFree enumerates every group a mid-sized exercise
// can produce — all subsets of 12 apps — on three server shapes, and in
// an injecting run on three server IDs, and checks no two distinct
// (server lane, group) pairs share a store key.
func TestCacheKeyCollisionFree(t *testing.T) {
	const apps = 12
	sizes := make([]float64, apps)
	for i := range sizes {
		sizes[i] = float64(i + 1)
	}
	p := cacheProblem(sizes, 3, 16, nil)
	p.Servers[1].CPUs = 32
	p.Servers[2].CPUCapacity = 0.5
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	injecting := *p
	injecting.Inject = faultinject.Func(func(string, string) faultinject.Outcome { return faultinject.Outcome{} })
	plain, inj := newEvaluator(p), newEvaluator(&injecting)
	lanes := map[string]uint64{}
	for i, s := range p.Servers {
		lanes["shape of "+s.ID] = plain.serverSigs[i]
		lanes["inject "+s.ID] = inj.serverSigs[i]
	}
	if len(lanes) != 6 {
		t.Fatalf("%d distinct lane names, want 6", len(lanes))
	}
	seen := make(map[cacheKey]string, len(lanes)<<apps)
	group := make([]int, 0, apps)
	for mask := 0; mask < 1<<apps; mask++ {
		group = group[:0]
		for a := 0; a < apps; a++ {
			if mask&(1<<a) != 0 {
				group = append(group, a)
			}
		}
		g := hashGroup(p.Apps, group)
		for name, lane := range lanes {
			k := cacheKey{cfg: plain.cfgSig, server: lane, group: g}
			id := fmt.Sprintf("%s %v", name, group)
			if prev, ok := seen[k]; ok {
				t.Fatalf("key collision: %q and %q both key %+v", prev, id, k)
			}
			seen[k] = id
		}
	}
}

// TestDigestSeesEveryBit flips each of the 64 bits of one sample, in
// each of an app's traces: every flip must move the app's content
// digest and the group lane of a store key for a group holding it.
func TestDigestSeesEveryBit(t *testing.T) {
	apps := cacheProblem([]float64{2, 3}, 1, 10, nil).Apps
	apps[0].Extra = map[Attribute]sim.Workload{AttrMemory: flatWorkload(apps[0].ID, 1, 28)}
	for i := range apps {
		if err := apps[i].Prepare(); err != nil {
			t.Fatal(err)
		}
	}
	app := &apps[0]
	attrs := attributeUnion(apps[:1])
	digest, lane := app.contentDigest(attrs), hashGroup(apps, []int{0, 1})
	if digest != app.digest {
		t.Fatalf("contentDigest %x, Prepare recorded %x", digest, app.digest)
	}
	mem := app.Extra[AttrMemory]
	for name, trace := range map[string][]float64{"CoS1": app.Workload.CoS1, "CoS2": app.Workload.CoS2, "memory CoS1": mem.CoS1, "memory CoS2": mem.CoS2} {
		for bit := 0; bit < 64; bit++ {
			saved := trace[5]
			trace[5] = math.Float64frombits(math.Float64bits(saved) ^ 1<<bit)
			app.digest = app.contentDigest(attrs)
			if moved := hashGroup(apps, []int{0, 1}) != lane; app.digest == digest || !moved {
				t.Errorf("%s sample 5, bit %d: digest %x (was %x), group lane moved %v", name, bit, app.digest, digest, moved)
			}
			trace[5] = saved
		}
	}
}

// TestHashConfigCoversProblem walks Problem's fields (and Server's) by
// reflection: each must move the store key when it changes — folded by
// hashConfig, or per server by hashServerShape — or be excluded by name
// with the reason. The content key is the only key, so a simulation
// input left out of it would alias silently.
func TestHashConfigCoversProblem(t *testing.T) {
	problemExcluded := map[string]string{
		"Apps":    "keyed by hashGroup through each app's content digest",
		"Servers": "keyed per server by hashServerShape, walked below",
		"Hooks":   "telemetry, not a simulation input",
		"Inject":  "an injecting run gets a private store keyed by server ID",
		"Cache":   "the store itself",
		"attrs":   "derived from Apps by Validate, folded by hashServerShape",
	}
	serverExcluded := map[string]string{
		"ID": "identity, not shape; folded only in an injecting run",
	}
	p := cacheProblem([]float64{2, 3}, 1, 10, nil)
	p.Apps[0].Extra = map[Attribute]sim.Workload{AttrMemory: flatWorkload(p.Apps[0].ID, 1, 28)}
	p.Servers[0].Extra = map[Attribute]float64{AttrMemory: 4}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	checkFolded(t, p, problemExcluded, func() uint64 { return hashConfig(p) })
	srv := &p.Servers[0]
	checkFolded(t, srv, serverExcluded, func() uint64 { return hashServerShape(*srv, p.attrs) })
}

// checkFolded changes every field of *ptr in turn, descending into
// nested structs, and fails for each one that is not excluded and
// leaves hash unmoved.
func checkFolded(t *testing.T, ptr any, excluded map[string]string, hash func() uint64) {
	t.Helper()
	want := hash()
	var walk func(v reflect.Value, prefix string)
	walk = func(v reflect.Value, prefix string) {
		for i := 0; i < v.NumField(); i++ {
			f, fv := v.Type().Field(i), v.Field(i)
			name := prefix + f.Name
			if _, ok := excluded[name]; ok {
				continue
			}
			if fv.Kind() == reflect.Struct {
				walk(fv, name+".")
				continue
			}
			saved := reflect.New(fv.Type()).Elem()
			if !f.IsExported() || !perturb(fv, saved) {
				t.Errorf("%s (%s) is neither folded into the store key nor excluded", name, fv.Kind())
				continue
			}
			if hash() == want {
				t.Errorf("changing %s leaves the store key unmoved: fold it or exclude it", name)
			}
			fv.Set(saved)
		}
	}
	walk(reflect.ValueOf(ptr).Elem(), "")
}

// perturb saves v into saved and changes it, reporting whether it knows
// how to change a value of v's kind.
func perturb(v, saved reflect.Value) bool {
	saved.Set(v)
	switch v.Kind() {
	case reflect.Float64:
		v.SetFloat(v.Float()*2 + 1)
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Map:
		if v.Type().Elem().Kind() != reflect.Float64 {
			return false
		}
		m := reflect.MakeMap(v.Type())
		for it := v.MapRange(); it.Next(); {
			m.SetMapIndex(it.Key(), reflect.ValueOf(it.Value().Float()*2+1).Convert(v.Type().Elem()))
		}
		v.Set(m)
	default:
		return false
	}
	return true
}

// cacheProblem builds a small CPU-only problem with per-app flat CoS2
// demand (required capacity is then cos1+cos2 exactly).
func cacheProblem(sizes []float64, nServers, cpus int, cache *SimCache) *Problem {
	apps := make([]App, len(sizes))
	for i, s := range sizes {
		c1 := make([]float64, 28)
		c2 := make([]float64, 28)
		for j := range c2 {
			c2[j] = s
		}
		id := fmt.Sprintf("app-%02d", i)
		apps[i] = App{ID: id, Workload: sim.Workload{AppID: id, CoS1: c1, CoS2: c2}}
	}
	servers := make([]Server, nServers)
	for i := range servers {
		servers[i] = Server{ID: fmt.Sprintf("srv-%02d", i), CPUs: cpus, CPUCapacity: 1}
	}
	return &Problem{
		Apps:          apps,
		Servers:       servers,
		Commitment:    qos.PoolCommitment{Theta: 0.9, Deadline: time.Hour},
		SlotsPerDay:   4,
		DeadlineSlots: 2,
		Tolerance:     0.01,
		Cache:         cache,
	}
}

// TestSharedCacheBitExact verifies the exactness contract behind the
// whole design: plans computed with no cache, a fresh cache, a
// pre-warmed cache and a store that evicts on every insert (so scored
// records are gone by the time the plan is materialised) are identical
// in every field.
func TestSharedCacheBitExact(t *testing.T) {
	ctx := context.Background()
	ga := DefaultGAConfig(7)
	ga.MaxGenerations = 30

	run := func(cache *SimCache) *Plan {
		p := cacheProblem([]float64{2, 3, 4, 1}, 4, 10, cache)
		initial := Assignment{0, 1, 2, 3}
		plan, err := Consolidate(ctx, p, initial, ga)
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}

	cold := run(nil)
	cache := NewSimCache(0)
	fresh := run(cache)
	if s := cache.Stats(); s.Misses == 0 {
		t.Fatal("fresh cache saw no traffic — is the evaluator wired to it?")
	}
	warmed := run(cache) // second run over a populated cache
	if s := cache.Stats(); s.Hits == 0 {
		t.Fatal("second run over a populated cache scored no hits")
	}
	tiny := NewSimCache(1)
	evicting := run(tiny)
	if s := tiny.Stats(); s.Evictions == 0 || s.Entries != 0 {
		t.Fatalf("a 1-byte store must evict every insert, stats %+v", s)
	}

	for name, plan := range map[string]*Plan{"fresh-cache": fresh, "warmed-cache": warmed, "evicting-cache": evicting} {
		if !reflect.DeepEqual(plan, cold) {
			t.Errorf("%s plan diverges from the uncached plan:\ngot  %+v\nwant %+v", name, plan, cold)
		}
	}
}

// TestSharedCacheAcrossProblems exercises the cross-run reuse the
// failure sweep depends on: a second Problem with the same app contents
// (different Problem value, same cache) hits instead of recomputing.
func TestSharedCacheAcrossProblems(t *testing.T) {
	cache := NewSimCache(0)
	a1 := Assignment{0, 0, 1}
	p1 := cacheProblem([]float64{2, 3, 4}, 3, 10, cache)
	plan1, err := Evaluate(p1, a1)
	if err != nil {
		t.Fatal(err)
	}
	before := cache.Stats()
	if before.Hits != 0 {
		t.Fatalf("first run should only miss, got %+v", before)
	}
	p2 := cacheProblem([]float64{2, 3, 4}, 3, 10, cache)
	plan2, err := Evaluate(p2, a1)
	if err != nil {
		t.Fatal(err)
	}
	after := cache.Stats()
	if after.Hits <= before.Hits {
		t.Fatalf("second problem should hit the shared cache, stats %+v", after)
	}
	if !reflect.DeepEqual(plan1, plan2) {
		t.Errorf("shared-cache plan diverges across problems")
	}
}

// TestSharedCacheServerShapeCollapses checks that same-shape servers
// share entries: evaluating the same group on server 0 and server 1 of
// a homogeneous pool costs one simulation.
func TestSharedCacheServerShapeCollapses(t *testing.T) {
	cache := NewSimCache(0)
	p := cacheProblem([]float64{2, 3}, 2, 10, cache)
	onSrv0, err := Evaluate(p, Assignment{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	s0 := cache.Stats()
	onSrv1, err := Evaluate(p, Assignment{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	s1 := cache.Stats()
	if s1.Hits <= s0.Hits || s1.Misses != s0.Misses {
		t.Fatalf("same group on a same-shape server should hit, stats %+v -> %+v", s0, s1)
	}
	u0, u1 := onSrv0.Usages[0], onSrv1.Usages[1]
	if u0.Server.ID != "srv-00" || u1.Server.ID != "srv-01" {
		t.Fatalf("cached reuse must restore the concrete server identity, got %q and %q",
			u0.Server.ID, u1.Server.ID)
	}
	u1.Server = u0.Server
	if !reflect.DeepEqual(u0, u1) {
		t.Errorf("same-shape reuse changed the usage:\nsrv0 %+v\nsrv1 %+v", u0, u1)
	}
}

// TestStoreOneRecordPerGroup: a consolidation on a fresh store leaves
// exactly one record per group it computed, feasible groups whose peak
// fits under the server's capacity included, and an infeasible group's
// screened record too.
func TestStoreOneRecordPerGroup(t *testing.T) {
	p := cacheProblem([]float64{2, 3, 4, 5, 6}, 5, 8, NewSimCache(0))
	initial, err := OneAppPerServer(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultGAConfig(3)
	cfg.MaxGenerations = 30
	plan, err := Consolidate(context.Background(), p, initial, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fits := false
	for _, u := range plan.Usages {
		fits = fits || (len(u.AppIDs) > 0 && u.Feasible && u.Result.PeakAggregate <= u.Server.Capacity())
	}
	if !fits {
		t.Fatal("no used server holds a feasible group whose peak fits its capacity")
	}
	if s := p.Cache.Stats(); s.Misses == 0 || s.Evictions != 0 || int64(s.Entries) != s.Misses {
		t.Errorf("store stats %+v, want one entry per computation and no evictions", s)
	}
}

// TestSimCacheEviction checks the byte bound: the shards split the one
// budget exactly, and a tiny store evicts entries instead of growing.
func TestSimCacheEviction(t *testing.T) {
	for _, budget := range []int64{1, 1000, DefaultSimCacheBytes} {
		cache, sum := NewSimCache(budget), int64(0)
		for i := range cache.shards {
			if m := cache.shards[i].max; m < budget/cacheShards || m > budget/cacheShards+1 {
				t.Fatalf("budget %d: shard %d holds %d, not an equal part", budget, i, m)
			}
			sum += cache.shards[i].max
		}
		if sum != budget {
			t.Fatalf("shard budgets sum to %d, want the %d-byte bound to stand", sum, budget)
		}
	}
	cache := NewSimCache(1) // effectively: evict after every insert
	p := cacheProblem([]float64{2, 3, 4}, 3, 10, cache)
	if _, err := Evaluate(p, Assignment{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	s := cache.Stats()
	if s.Evictions == 0 {
		t.Fatalf("a 1-byte cache must evict, stats %+v", s)
	}
	if s.Bytes > entryBytes(&groupEval{})+512 || s.Entries > 1 {
		t.Fatalf("cache grew past its bound: %+v", s)
	}
}

// TestSimCacheBypassedUnderInjection checks the injector rule: fault
// injection points must fire per evaluation and no injected outcome may
// reach another run, so an injecting Problem evaluates against a private
// store and never touches the shared one.
func TestSimCacheBypassedUnderInjection(t *testing.T) {
	cache := NewSimCache(0)
	hits := 0
	p := cacheProblem([]float64{2, 3}, 2, 10, cache)
	p.Inject = faultinject.Func(func(point, key string) faultinject.Outcome {
		hits++
		return faultinject.Outcome{}
	})
	if _, err := Evaluate(p, Assignment{0, 0}); err != nil {
		t.Fatal(err)
	}
	if hits == 0 {
		t.Fatal("injector never consulted")
	}
	if s := cache.Stats(); s.Hits+s.Misses+int64(s.Entries) != 0 {
		t.Fatalf("injecting problem must bypass the shared cache, stats %+v", s)
	}
}

// gatedHooks holds the first simulation search it sees until release
// is closed, after closing entered: the goroutine running that search
// is then a singleflight leader that others have to wait for.
type gatedHooks struct {
	telemetry.Hooks
	once             sync.Once
	entered, release chan struct{}
}

func newGatedHooks(reg *telemetry.Registry) *gatedHooks {
	return &gatedHooks{Hooks: telemetry.New(reg, nil), entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gatedHooks) Counter(name string) *telemetry.Counter {
	if name == "sim_searches_total" {
		g.once.Do(func() {
			close(g.entered)
			<-g.release
		})
	}
	return g.Hooks.Counter(name)
}

// hasWaiter reports whether a goroutine waits on a group being computed
// in c.
func hasWaiter(c *SimCache) bool {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, fl := range sh.inflight {
			if fl != nil {
				sh.mu.Unlock()
				return true
			}
		}
		sh.mu.Unlock()
	}
	return false
}

// TestSingleflightAcrossRuns: two evaluators on one store and 16
// goroutines ask for the same group, on three same-shape servers, while
// the first asker's search is held. The store computes it once and the
// other 15 asks are hits.
func TestSingleflightAcrossRuns(t *testing.T) {
	reg := telemetry.NewRegistry()
	hooks := newGatedHooks(reg)
	p := cacheProblem([]float64{2, 3, 4}, 3, 10, NewSimCache(0))
	p.Hooks = hooks
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	evs := []*evaluator{newEvaluator(p), newEvaluator(p)}
	const goroutines = 16
	var wg sync.WaitGroup
	var arrived atomic.Int64
	errs := make(chan error, goroutines)
	ask := func(g int) {
		defer wg.Done()
		ev := evs[g%2]
		sc := ev.acquire()
		defer ev.release(sc)
		arrived.Add(1)
		if _, err := ev.evalServer(context.Background(), sc, g%3, []int{0, 1, 2}); err != nil {
			errs <- err
		}
	}
	wg.Add(goroutines)
	go ask(0)
	<-hooks.entered
	for g := 1; g < goroutines; g++ {
		go ask(g)
	}
	for arrived.Load() < goroutines || !hasWaiter(p.Cache) {
		runtime.Gosched()
	}
	close(hooks.release)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for name, want := range map[string]int64{
		"sim_searches_total":                  1,
		"placement_eval_cache_misses_total":   1,
		"placement_eval_cache_hits_total":     goroutines - 1,
		"placement_shared_cache_misses_total": 1,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	// How often the record changed hands between the runs depends on the
	// order the hits took; the second run's first use always counts.
	reused := reg.Counter("placement_shared_cache_hits_total").Value()
	if s := p.Cache.Stats(); reused < 1 || reused >= goroutines || s.Hits != reused || s.Misses != 1 || s.Entries != 1 {
		t.Errorf("store stats %+v and %d reuses, want 1 to 15 reuses, 1 computation and 1 entry", s, reused)
	}
	if hasWaiter(p.Cache) {
		t.Error("in-flight entries leaked")
	}
}

// TestSingleflightLeaderCancelled: a leader whose ctx is cancelled
// fails alone. The other run's waiter does not inherit the error: it
// computes the group under its own ctx and gets the record a cold
// evaluation gets.
func TestSingleflightLeaderCancelled(t *testing.T) {
	reg := telemetry.NewRegistry()
	hooks := newGatedHooks(reg)
	p := cacheProblem([]float64{2, 3, 4}, 3, 10, NewSimCache(0))
	p.Hooks = hooks
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	leader, waiter := newEvaluator(p), newEvaluator(p)
	group := []int{0, 1, 2}
	ctx, cancel := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := leader.evalServer(ctx, leader.acquire(), 0, group)
		leaderErr <- err
	}()
	<-hooks.entered
	type outcome struct {
		ev  groupEval
		err error
	}
	waited := make(chan outcome, 1)
	go func() {
		ev, err := waiter.evalServer(context.Background(), waiter.acquire(), 1, group)
		waited <- outcome{ev, err}
	}()
	for !hasWaiter(p.Cache) {
		runtime.Gosched()
	}
	cancel()
	close(hooks.release)

	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader: want its own cancellation, got %v", err)
	}
	got := <-waited
	if got.err != nil {
		t.Fatalf("waiter inherited the leader's failure: %v", got.err)
	}
	cold, err := Evaluate(cacheProblem([]float64{2, 3, 4}, 3, 10, nil), Assignment{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	u := cold.Usages[0]
	if !sameBits(got.ev.required, u.Required) || got.ev.feasible != u.Feasible || got.ev.result != u.Result {
		t.Errorf("waiter's record %+v, cold usage %+v", got.ev, u)
	}
	if n := reg.Counter("sim_searches_total").Value(); n != 2 {
		t.Errorf("sim_searches_total = %d, want the cancelled search and the waiter's", n)
	}
	if hasWaiter(p.Cache) {
		t.Error("in-flight entries leaked")
	}
}

// modelEval is a distinct record for the model tests: every field
// differs between seeds, and some records carry a per-attribute map.
func modelEval(rng *rand.Rand, seed int) groupEval {
	ev := groupEval{
		required: float64(seed) + 0.5,
		value:    rng.Float64(),
		feasible: rng.Intn(2) == 0,
		result:   sim.Result{CoS1Peak: rng.Float64(), Theta: rng.Float64(), DeadlineOK: true, PeakAggregate: rng.Float64() * 4},
	}
	if rng.Intn(4) == 0 {
		ev.extra = map[Attribute]float64{AttrMemory: float64(seed)}
	}
	return ev
}

// sameEval compares two records bit for bit.
func sameEval(a, b groupEval) bool {
	return sameBits(a.required, b.required) && sameBits(a.value, b.value) && a.feasible == b.feasible &&
		a.result == b.result && maps.Equal(a.extra, b.extra)
}

// modelKeys draws n keys: half anywhere, half in shard 0 starting their
// probe at one of two index positions, so probe runs are long and every
// eviction shifts entries back.
func modelKeys(rng *rand.Rand, c *SimCache, n int) []cacheKey {
	keys := make([]cacheKey, 0, n)
	for len(keys) < n {
		k := cacheKey{cfg: rng.Uint64(), server: rng.Uint64(), group: rng.Uint64()}
		if len(keys) >= n/2 || (c.shard(k) == &c.shards[0] && k.indexHash()&15 < 2) {
			keys = append(keys, k)
		}
	}
	return keys
}

// checkStore verifies the store's invariants: each shard's Bytes is the
// sum of entryBytes over its live records and within its budget unless
// it holds nothing, its live count is right, every live record is
// reachable through the index, no index position names a free slot,
// and the free list holds exactly the empty slots.
func checkStore(t *testing.T, c *SimCache) {
	t.Helper()
	var entries int
	var bytes int64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		var live int
		var sum int64
		for s := int32(0); s < sh.slots; s++ {
			r := sh.record(s)
			if !r.live {
				continue
			}
			live++
			sum += entryBytes(&r.eval)
			if sh.find(r.key) != r {
				t.Fatalf("shard %d: live slot %d (key %+v) unreachable from the index", i, s, r.key)
			}
		}
		indexed := 0
		for pos, v := range sh.index {
			if v != 0 {
				indexed++
				if v > sh.slots || !sh.record(v-1).live {
					t.Fatalf("shard %d: index position %d names free slot %d", i, pos, v-1)
				}
			}
		}
		for _, s := range sh.free {
			if sh.record(s).live {
				t.Fatalf("shard %d: live slot %d is on the free list", i, s)
			}
		}
		if live != sh.live || indexed != live || sum != sh.bytes || int(sh.slots) != live+len(sh.free) {
			t.Fatalf("shard %d: %d live records (%d indexed, %d B) but live=%d bytes=%d; %d slots, %d free",
				i, live, indexed, sum, sh.live, sh.bytes, sh.slots, len(sh.free))
		}
		if sh.bytes > sh.max && live > 0 {
			t.Fatalf("shard %d holds %d B over its %d B budget", i, sh.bytes, sh.max)
		}
		entries += live
		bytes += sum
		sh.mu.Unlock()
	}
	if s := c.Stats(); s.Entries != entries || s.Bytes != bytes {
		t.Fatalf("Stats %+v, want %d entries and %d B", s, entries, bytes)
	}
}

// modelOp applies one random operation to c for keys and checks the
// answer against want, the record last stored under each key: an
// insert of a key the store does not hold (checked under the same lock,
// as the singleflight leader that claimed an absent key stores it), or
// a hit.
func modelOp(rng *rand.Rand, c *SimCache, keys []cacheKey, want map[cacheKey]groupEval, seed int) error {
	k := keys[rng.Intn(len(keys))]
	sh := c.shard(k)
	run := uint64(rng.Intn(3))
	if rng.Intn(2) == 0 {
		ev := modelEval(rng, seed)
		sh.mu.Lock()
		if sh.find(k) == nil {
			want[k] = ev
			c.insert(sh, k, run, &ev)
		}
		sh.mu.Unlock()
		return nil
	}
	sh.mu.Lock()
	ev, _, ok := sh.get(k, run)
	sh.mu.Unlock()
	if w, stored := want[k]; ok && (!stored || !sameEval(ev, w)) {
		return fmt.Errorf("hit on %+v returned %+v, last stored %+v", k, ev, w)
	}
	return nil
}

// TestSimCacheModel drives the store with random inserts and hits over
// a few hundred keys, at budgets from 1 B (every insert evicts) to a
// few KB per shard (the index doubles and probe runs are long), and
// holds it to a map model: a lookup returns nothing or the
// record last stored under its key, bit for bit, and the slab, index
// and byte accounting agree after every operation. The concurrent pass
// runs goroutines on disjoint keys over one store, where a record
// copied out after its slot was reused would show.
func TestSimCacheModel(t *testing.T) {
	for _, budget := range []int64{1, 3_000, 12_000, 48_000} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			rng := rand.New(rand.NewSource(budget))
			c := NewSimCache(budget)
			keys := modelKeys(rng, c, 160)
			want := make(map[cacheKey]groupEval)
			for op := 0; op < 1500; op++ {
				if err := modelOp(rng, c, keys, want, op); err != nil {
					t.Fatalf("op %d: %v", op, err)
				}
				checkStore(t, c)
				for _, k := range keys {
					sh := c.shard(k)
					sh.mu.Lock()
					r := sh.find(k)
					if r != nil && !sameEval(r.eval, want[k]) {
						t.Fatalf("op %d: %+v holds %+v, last stored %+v", op, k, r.eval, want[k])
					}
					sh.mu.Unlock()
				}
			}
			if s := c.Stats(); s.Evictions == 0 {
				t.Fatalf("budget %d never evicted: %+v", budget, s)
			}
		})
	}
	t.Run("chunks", func(t *testing.T) {
		// One shard past its first chunks: 1000 keys, room for 700.
		rng := rand.New(rand.NewSource(7))
		c := NewSimCache(cacheShards * 700 * entryBytes(&groupEval{}))
		var keys []cacheKey
		for len(keys) < 1000 {
			if k := (cacheKey{cfg: 1, server: 2, group: rng.Uint64()}); c.shard(k) == &c.shards[0] {
				keys = append(keys, k)
			}
		}
		want := make(map[cacheKey]groupEval)
		for op := 0; op < 4000; op++ {
			if err := modelOp(rng, c, keys, want, op); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			if op%200 == 0 {
				checkStore(t, c)
			}
		}
		checkStore(t, c)
		if sh := &c.shards[0]; sh.slots <= chunkSize || c.Stats().Evictions == 0 {
			t.Fatalf("%d slots and %+v: the shard never filled its growing chunks or never evicted", sh.slots, c.Stats())
		}
	})
	t.Run("concurrent", func(t *testing.T) {
		const workers = 4
		c := NewSimCache(24_000)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				keys := modelKeys(rng, c, 100)
				want := make(map[cacheKey]groupEval)
				for op := 0; op < 2000; op++ {
					if err := modelOp(rng, c, keys, want, op); err != nil {
						t.Errorf("worker %d, op %d: %v", w, op, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		checkStore(t, c)
	})
}

// TestSimCacheClock pins the CLOCK order in one shard holding three
// records: a record hit since the hand last passed survives the next
// eviction, the first unreferenced record after the hand goes instead,
// and a bit the hand cleared protects nothing on its next pass.
func TestSimCacheClock(t *testing.T) {
	c := NewSimCache(cacheShards * 3 * entryBytes(&groupEval{}))
	rng := rand.New(rand.NewSource(1))
	var keys []cacheKey
	for len(keys) < 7 {
		if k := (cacheKey{cfg: 1, server: 2, group: rng.Uint64()}); c.shard(k) == &c.shards[0] {
			keys = append(keys, k)
		}
	}
	a, b, cc, d, e, f, g := keys[0], keys[1], keys[2], keys[3], keys[4], keys[5], keys[6]
	sh := &c.shards[0]
	hit := func(k cacheKey) {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		if _, _, ok := sh.get(k, 1); !ok {
			t.Fatalf("%+v missing before its hit", k)
		}
	}
	holds := func(step string, want ...cacheKey) {
		t.Helper()
		sh.mu.Lock()
		defer sh.mu.Unlock()
		for _, k := range keys {
			if got := sh.find(k) != nil; got != slices.Contains(want, k) {
				t.Errorf("%s: key %d stored = %v", step, slices.Index(keys, k), got)
			}
		}
	}
	put := func(k cacheKey) int { return c.put(k, 1, groupEval{required: 1}) }
	for _, k := range []cacheKey{a, b, cc} {
		if n := put(k); n != 0 {
			t.Fatalf("filling the shard evicted %d", n)
		}
	}
	hit(a)
	if put(d) != 1 {
		t.Fatal("a fourth record did not evict one")
	}
	holds("a hit, d inserted", a, cc, d) // the hand cleared a's bit and took b
	hit(d)
	put(e)
	holds("d hit, e inserted", a, d, e) // c was next after the hand
	put(f)
	holds("f inserted", d, e, f) // the hand spent d's bit and took a, cleared on its last pass
	hit(e)
	put(g)
	holds("e hit, g inserted", d, e, g) // e's bit saved it, f was next
	if s := c.Stats(); s.Evictions != 4 || s.Entries != 3 {
		t.Errorf("stats %+v, want 4 evictions and 3 entries", s)
	}
}

// put stores a record under k, which the store does not hold, as the
// singleflight leader does, and returns how many entries were evicted.
func (c *SimCache) put(k cacheKey, run uint64, ev groupEval) int {
	sh := c.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return c.insert(sh, k, run, &ev)
}

// TestSimCacheColdInsertAllocs gates the slab's allocation count: 100k
// puts into a fresh store allocate per chunk and per index doubling,
// not per record (a map of pointers to records allocated at least
// 100k objects).
func TestSimCacheColdInsertAllocs(t *testing.T) {
	const n = 100_000
	allocs := testing.AllocsPerRun(1, func() {
		c := NewSimCache(1 << 40)
		for i := 0; i < n; i++ {
			c.put(cacheKey{cfg: 1, server: uint64(i % 2), group: fnvInt(fnvOffset64, i)}, 0, groupEval{required: float64(i)})
		}
	})
	t.Logf("%d cold puts allocate %.0f objects", n, allocs)
	const budget = 1200
	if allocs > budget {
		t.Errorf("%d cold puts allocate %.0f objects, budget %d", n, allocs, budget)
	}
}
