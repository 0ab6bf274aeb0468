package placement

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"ropus/internal/sim"
)

// TestEvaluateScreenedRecordRecomputed pins what a plan ships for a
// server whose group its primary search decides infeasible: on two
// weeks the first-week screen rejects it, on one week (too short to
// screen) the search itself does. Either way the store holds a record
// without statistics; the plan must still carry the full sim.Result,
// bit for bit a Replay at the server's capacity, whether the record is
// fresh or read back from a shared store.
func TestEvaluateScreenedRecordRecomputed(t *testing.T) {
	for _, weeks := range []int{2, 1} {
		t.Run(fmt.Sprintf("weeks=%d", weeks), func(t *testing.T) {
			testScreenedRecord(t, weeks)
		})
	}
}

func testScreenedRecord(t *testing.T, weeks int) {
	ctx := context.Background()
	cache := NewSimCache(0)
	p := lightProblem(46, 9, 6, cache) // two weeks of 4-slot days
	slots := weeks * 7 * p.SlotsPerDay
	for i := range p.Apps {
		w := &p.Apps[i].Workload
		w.CoS1, w.CoS2 = w.CoS1[:slots], w.CoS2[:slots]
		for attr, x := range p.Apps[i].Extra {
			x.CoS1, x.CoS2 = x.CoS1[:slots], x.CoS2[:slots]
			p.Apps[i].Extra[attr] = x
		}
	}
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
	k := cacheKey{cfg: e.cfgSig, server: e.serverSigs[0], group: hashGroup(p.Apps, group)}
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
	// A fresh evaluator computes the same record, and its statistics
	// are the replay at the server's capacity.
	fresh := newEvaluator(p)
	fsc := fresh.acquire()
	defer fresh.release(fsc)
	ev, err := fresh.computeServer(ctx, fsc, 0, group)
	if err != nil {
		t.Fatal(err)
	}
	u := want.Usages[0]
	if !ev.screened || ev.feasible || ev.required != u.Required || ev.value != u.Value || ev.result != (sim.Result{}) {
		t.Fatalf("fresh record = %+v, want the reference usage %+v without statistics", ev, u)
	}
	if res, err := fresh.replayStats(fsc, 0, group); err != nil || res != u.Result {
		t.Fatalf("replayed statistics = %+v (err %v), want %+v", res, err, u.Result)
	}
}
