package placement

import (
	"context"
	"reflect"
	"testing"

	"ropus/internal/sim"
)

// TestEvaluateScreenedRecordRecomputed pins what a plan ships for a
// server whose first week overbooks it. The search rejects the group
// on that week alone and stores a record without statistics; the plan
// must still carry the full sim.Result, bit for bit what Rebuild and
// Search compute, whether the record is fresh or read back from a
// shared store, and the same as the unscreened path computes.
func TestEvaluateScreenedRecordRecomputed(t *testing.T) {
	ctx := context.Background()
	cache := NewSimCache(0)
	p := lightProblem(46, 9, 6, cache) // two weeks of 4-slot days
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	a := make(Assignment, len(p.Apps)) // every app on server 0
	want := referencePlan(t, p, a)
	if want.Usages[0].Feasible || want.Usages[0].Result == (sim.Result{}) {
		t.Fatalf("server 0 = %+v, want overbooked with statistics", want.Usages[0])
	}

	e := newEvaluator(p)
	sc := e.acquire()
	var c scored
	if err := e.score(ctx, sc, a.Clone(), &c); err != nil {
		t.Fatal(err)
	}
	group := append([]int(nil), sc.groups.of(0)...)
	k := cacheKey{cfg: e.cfgSig, server: e.usageSigs[0], group: hashGroup(p.Apps, group)}
	sh := e.store.shard(k)
	sh.mu.Lock()
	rec, _, ok := sh.get(k, e.run)
	sh.mu.Unlock()
	if !ok || !rec.screened || rec.result != (sim.Result{}) || rec.required != p.Servers[0].Capacity() {
		t.Fatalf("stored record = %+v (found %v), want a screened rejection at capacity", rec, ok)
	}

	plan, err := e.materialise(ctx, sc, &c)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plan, want) {
		t.Fatalf("materialised plan\n%+v\nreference\n%+v", plan, want)
	}
	// A fresh run reads the screened record from the shared store.
	got, err := Evaluate(p, a)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Evaluate through the shared store\n%+v\nreference\n%+v", got, want)
	}
	// The unscreened path computes the same record, statistics included.
	fresh := newEvaluator(p)
	fsc := fresh.acquire()
	defer fresh.release(fsc)
	ev, err := fresh.computeServer(ctx, fsc, 0, group, hashGroup(p.Apps, group), false)
	if err != nil {
		t.Fatal(err)
	}
	u := want.Usages[0]
	if ev.screened || ev.feasible || ev.required != u.Required || ev.value != u.Value || ev.result != u.Result {
		t.Fatalf("unscreened record = %+v, want the reference usage %+v", ev, u)
	}
}
