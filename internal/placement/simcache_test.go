package placement

import (
	"context"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"ropus/internal/faultinject"
	"ropus/internal/qos"
	"ropus/internal/sim"
)

// legacyKey is the strings.Builder key the FNV key replaced; the
// collision test checks the new key is injective wherever the old one
// was.
func legacyKey(server int, apps []int) string {
	var b strings.Builder
	b.WriteString(strconv.Itoa(server))
	for _, a := range apps {
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(a))
	}
	return b.String()
}

// TestEvaluatorKeyCollisionFree enumerates every (server, group) pair a
// mid-sized exercise can produce — all subsets of 12 apps on 12 servers
// — and checks the 64-bit key never collides where the legacy string
// key distinguished.
func TestEvaluatorKeyCollisionFree(t *testing.T) {
	e := &evaluator{}
	const apps, servers = 12, 12
	seen := make(map[uint64]string, servers<<apps)
	group := make([]int, 0, apps)
	for mask := 0; mask < 1<<apps; mask++ {
		group = group[:0]
		for a := 0; a < apps; a++ {
			if mask&(1<<a) != 0 {
				group = append(group, a)
			}
		}
		for s := 0; s < servers; s++ {
			k := e.key(s, group)
			legacy := legacyKey(s, group)
			if prev, ok := seen[k]; ok && prev != legacy {
				t.Fatalf("key collision: %q and %q both hash to %#x", prev, legacy, k)
			}
			seen[k] = legacy
		}
	}
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
// whole design: plans computed with no cache, a fresh cache, and a
// pre-warmed cache are identical in every field.
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

	for name, plan := range map[string]*Plan{"fresh-cache": fresh, "warmed-cache": warmed} {
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
	if s1.Hits <= s0.Hits {
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

// TestWarmStartAcrossCapacities checks the cross-capacity warm path: a
// group solved on a small server is reused on a larger one (different
// shape, so the full-usage key misses) and reproduces the cold result
// exactly.
func TestWarmStartAcrossCapacities(t *testing.T) {
	cache := NewSimCache(0)
	small := cacheProblem([]float64{2, 3}, 2, 10, cache)
	if _, err := Evaluate(small, Assignment{0, 0}); err != nil {
		t.Fatal(err)
	}

	big := cacheProblem([]float64{2, 3}, 2, 16, cache)
	warmPlan, err := Evaluate(big, Assignment{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if s := cache.Stats(); s.WarmHits == 0 {
		t.Fatalf("bigger-capacity evaluation should warm-start, stats %+v", s)
	}

	coldBig := cacheProblem([]float64{2, 3}, 2, 16, nil)
	coldPlan, err := Evaluate(coldBig, Assignment{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warmPlan, coldPlan) {
		t.Errorf("warm-started plan diverges from cold compute:\nwarm %+v\ncold %+v",
			warmPlan, coldPlan)
	}
}

// TestSimCacheEviction checks the byte bound: a tiny cache evicts
// least-recently-used entries instead of growing.
func TestSimCacheEviction(t *testing.T) {
	cache := NewSimCache(1) // effectively: evict after every insert
	if cache.max != 1 {
		t.Fatalf("max = %d, want the 1-byte bound to stand", cache.max)
	}
	p := cacheProblem([]float64{2, 3, 4}, 3, 10, cache)
	if _, err := Evaluate(p, Assignment{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	s := cache.Stats()
	if s.Evictions == 0 {
		t.Fatalf("a 1-byte cache must evict, stats %+v", s)
	}
	if s.Bytes > entryBytes(groupEval{})+512 || s.Entries > 1 {
		t.Fatalf("cache grew past its bound: %+v", s)
	}
}

// TestSimCacheBypassedUnderInjection checks the injector rule: fault
// injection points must fire per evaluation, so an injecting Problem
// never touches the shared cache.
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
