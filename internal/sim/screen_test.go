package sim

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ropus/internal/faultinject"
	"ropus/internal/qos"
	"ropus/internal/telemetry"
)

// screenTol is the search tolerance the screen tests search at.
const screenTol = 0.05

// screenCase is one group of workloads, a configuration and the limit
// a search would run against.
type screenCase struct {
	group []Workload
	cfg   Config
	limit float64
}

// screenedSearch is what a caller of the screen sees: rejected, or the
// Search outcome on the aggregate the screen built. It also returns
// that aggregate and the registry the screen and search reported to.
func screenedSearch(t *testing.T, c screenCase) (rejected bool, out SearchOutcome, agg *Aggregate, reg *telemetry.Registry) {
	t.Helper()
	reg = telemetry.NewRegistry()
	cfg := c.cfg
	cfg.Hooks = telemetry.New(reg, nil)
	agg = new(Aggregate)
	rejected, err := agg.RebuildScreened(c.group, cfg, c.limit)
	if err != nil {
		t.Fatal(err)
	}
	if !rejected {
		if out, err = agg.Search(context.Background(), cfg, c.limit, screenTol); err != nil {
			t.Fatal(err)
		}
	}
	return rejected, out, agg, reg
}

// unscreenedSearch is Rebuild followed by Search, the path the screen
// must agree with.
func unscreenedSearch(t *testing.T, c screenCase) SearchOutcome {
	t.Helper()
	var agg Aggregate
	if err := agg.Rebuild(c.group); err != nil {
		t.Fatal(err)
	}
	out, err := agg.Search(context.Background(), c.cfg, c.limit, screenTol)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// checkScreen holds the screen to Rebuild + Search: a rejection is an
// infeasible search at the limit, counted as one; anything else leaves
// the aggregate Rebuild's, bit for bit, and the outcome Search's.
func checkScreen(t *testing.T, label string, c screenCase) (rejected bool) {
	t.Helper()
	want := unscreenedSearch(t, c)
	rejected, got, agg, reg := screenedSearch(t, c)
	if rejected {
		if want.Feasible || want.Capacity != c.limit {
			t.Fatalf("%s: screen rejected a search that ends %+v", label, want)
		}
		searches := reg.Counter("sim_searches_total").Value()
		infeasible := reg.Counter("sim_search_infeasible_total").Value()
		if searches != 1 || infeasible != 1 {
			t.Fatalf("%s: a rejection counts %d searches, %d infeasible; want 1, 1", label, searches, infeasible)
		}
		return true
	}
	sameAggregate(t, label, agg, c.group)
	if got != want {
		t.Fatalf("%s: screened search = %+v, want %+v", label, got, want)
	}
	return false
}

// randScreenCase draws a group of 1–4 workloads over 2–5 whole weeks
// and a ragged tail, each week of each app scaled on its own so that an
// overload can sit in any week, with a deadline of 0–8 slots, θ in
// (0, 1] (a third of the time exactly the trace's θ at the limit) and
// a limit anywhere from below the CoS1 peak to above the total peak.
func randScreenCase(r *rand.Rand) screenCase {
	t := 2 + r.Intn(5)
	week := 7 * t
	n := (2+r.Intn(4))*week + r.Intn(week)
	group := make([]Workload, 1+r.Intn(4))
	for a := range group {
		w := Workload{AppID: string(rune('a' + a)), CoS1: make([]float64, n), CoS2: make([]float64, n)}
		scale := make([]float64, n/week+1)
		for i := range scale {
			scale[i] = 0.3 + 1.4*r.Float64()
		}
		for i := 0; i < n; i++ {
			s := scale[i/week]
			w.CoS1[i] = s * r.Float64()
			if r.Intn(4) == 0 {
				w.CoS2[i] = s * 4 * r.Float64() // bursts that open backlogs
			} else {
				w.CoS2[i] = s * r.Float64()
			}
		}
		group[a] = w
	}
	ref, err := NewAggregate(group)
	if err != nil {
		panic(err)
	}
	theta := 1 - r.Float64() // (0, 1]
	if r.Intn(4) == 0 {
		theta = 1
	}
	cfg := Config{
		SlotsPerDay:   t,
		DeadlineSlots: r.Intn(9),
		Commitment:    qos.PoolCommitment{Theta: theta},
	}
	var limit float64
	switch r.Intn(6) {
	case 0:
		limit = ref.CoS1Peak()
	case 1:
		limit = ref.TotalPeak()
	default:
		limit = ref.CoS1Peak()*0.8 + (ref.TotalPeak()*1.1-ref.CoS1Peak()*0.8)*r.Float64()
	}
	limit = max(limit, 0.01)
	if r.Intn(3) == 0 {
		// A commitment the whole trace meets at the limit with no θ to
		// spare: a screen that reads θ off anything but the trace's own
		// week-0 groups rejects some of these.
		at := cfg
		at.Capacity = limit
		if res, err := ref.Replay(at); err == nil && res.Theta > 0 {
			cfg.Commitment.Theta = res.Theta
		}
	}
	return screenCase{group: group, cfg: cfg, limit: limit}
}

// TestRebuildScreenedProperty holds the screen to Rebuild + Search on
// random groups: every rejection is a search that ends infeasible, and
// every other outcome, aggregate bits included, is the unscreened one.
func TestRebuildScreenedProperty(t *testing.T) {
	r := rand.New(rand.NewSource(46))
	rejected, kept := 0, 0
	for trial := 0; trial < 1500; trial++ {
		if checkScreen(t, "random", randScreenCase(r)) {
			rejected++
		} else {
			kept++
		}
	}
	if rejected < 100 || kept < 100 {
		t.Fatalf("%d rejected and %d kept: the draw no longer exercises both outcomes", rejected, kept)
	}
}

// screenTrace builds one workload over n slots of a T-slot day with
// the given CoS1 and CoS2 everywhere, then applies the per-slot edits.
func screenTrace(n int, cos1, cos2 float64, edits map[int][2]float64) Workload {
	w := Workload{AppID: "a", CoS1: make([]float64, n), CoS2: make([]float64, n)}
	for i := range w.CoS1 {
		w.CoS1[i], w.CoS2[i] = cos1, cos2
	}
	for i, e := range edits {
		w.CoS1[i], w.CoS2[i] = e[0], e[1]
	}
	return w
}

// firstWeekResult replays the case's first week alone at its limit:
// what the screen saw.
func firstWeekResult(t *testing.T, c screenCase) Result {
	t.Helper()
	week := 7 * c.cfg.SlotsPerDay
	w := c.group[0]
	agg := batchAgg(slices.Clone(w.CoS1[:week]), slices.Clone(w.CoS2[:week]))
	cfg := c.cfg
	cfg.Capacity = c.limit
	res, err := agg.Replay(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRebuildScreenedWitnesses pins one rejection for each way the
// first week can prove an overload, and the three shapes that must not
// be rejected.
func TestRebuildScreenedWitnesses(t *testing.T) {
	const T = 4
	week := 7 * T
	// One slot of day 2 in each named week carries a CoS2 burst of 10 over a
	// base demand of 1; at a limit of 5 each burst leaves 5 behind.
	bursts := func(weeks ...int) map[int][2]float64 {
		e := map[int][2]float64{}
		for _, w := range weeks {
			e[w*week+2*T+1] = [2]float64{0, 10}
		}
		return e
	}

	t.Run("CoS1 peak", func(t *testing.T) {
		c := screenCase{
			group: []Workload{screenTrace(3*week, 1, 0.5, map[int][2]float64{5: {6, 0}})},
			cfg:   Config{SlotsPerDay: T, DeadlineSlots: 2, Commitment: qos.PoolCommitment{Theta: 0.9}},
			limit: 4,
		}
		if !checkScreen(t, "CoS1 peak", c) {
			t.Fatal("a CoS1 peak above the limit in week 0 was not rejected")
		}
		if _, _, _, reg := screenedSearch(t, c); reg.Counter("sim_replays_total").Value() != 0 {
			t.Error("a CoS1 rejection replayed the week; the sums decide it")
		}
	})

	t.Run("theta", func(t *testing.T) {
		// Every day of week 0 bursts in the same slot, so that slot's θ
		// group is served 5 of 10 each day: θ = 0.5 < 0.9. A deadline of
		// 8 slots drains each burst's backlog in time.
		e := map[int][2]float64{}
		for d := 0; d < 7; d++ {
			e[d*T+1] = [2]float64{0, 10}
		}
		c := screenCase{
			group: []Workload{screenTrace(2*week, 0, 1, e)},
			cfg:   Config{SlotsPerDay: T, DeadlineSlots: 8, Commitment: qos.PoolCommitment{Theta: 0.9}},
			limit: 5,
		}
		if res := firstWeekResult(t, c); !res.DeadlineOK || res.Theta >= 0.9 {
			t.Fatalf("week 0 at the limit = %+v, want a θ witness alone", res)
		}
		if !checkScreen(t, "theta", c) {
			t.Fatal("a θ overload in week 0 was not rejected")
		}
	})

	t.Run("deadline", func(t *testing.T) {
		// One burst in week 0, and the slot behind it asks for the whole
		// limit: the 5 left behind expire after one slot. θ = 0.01 holds.
		e := bursts(0)
		e[2*T+2] = [2]float64{0, 5}
		c := screenCase{
			group: []Workload{screenTrace(2*week, 0, 1, e)},
			cfg:   Config{SlotsPerDay: T, DeadlineSlots: 1, Commitment: qos.PoolCommitment{Theta: 0.01}},
			limit: 5,
		}
		if res := firstWeekResult(t, c); res.DeadlineOK || res.Theta < 0.01 {
			t.Fatalf("week 0 at the limit = %+v, want a deadline witness alone", res)
		}
		if !checkScreen(t, "deadline", c) {
			t.Fatal("a deadline miss in week 0 was not rejected")
		}
	})

	t.Run("violation only in week 2", func(t *testing.T) {
		// The same deadline miss as above, in the second and then the
		// third week of three: the screen reads week 0 and nothing else.
		for _, w := range []int{1, 2} {
			e := bursts(w)
			e[w*week+2*T+2] = [2]float64{0, 5}
			c := screenCase{
				group: []Workload{screenTrace(3*week, 0, 1, e)},
				cfg:   Config{SlotsPerDay: T, DeadlineSlots: 1, Commitment: qos.PoolCommitment{Theta: 0.01}},
				limit: 5,
			}
			if out := unscreenedSearch(t, c); out.Feasible {
				t.Fatalf("week %d: search = %+v, want infeasible", w, out)
			}
			if checkScreen(t, "later week", c) {
				t.Fatalf("week %d: a group whose first week fits was rejected", w)
			}
		}
	})

	t.Run("limit at or above the week's total peak", func(t *testing.T) {
		// Week 1 bursts past the limit; week 0 peaks at 1, the limit is
		// 1. At its total peak the week has no deficit to find, so the
		// screen must not pay a replay to learn that.
		e := bursts(1)
		e[week+2*T+2] = [2]float64{0, 5}
		c := screenCase{
			group: []Workload{screenTrace(2*week, 0, 1, e)},
			cfg:   Config{SlotsPerDay: T, DeadlineSlots: 1, Commitment: qos.PoolCommitment{Theta: 0.01}},
			limit: 1,
		}
		if checkScreen(t, "week total peak", c) {
			t.Fatal("a group whose first week peaks at the limit was rejected")
		}
		// The search itself replays; count only the screen's lanes.
		reg := telemetry.NewRegistry()
		cfg := c.cfg
		cfg.Hooks = telemetry.New(reg, nil)
		var agg Aggregate
		if _, err := agg.RebuildScreened(c.group, cfg, c.limit); err != nil {
			t.Fatal(err)
		}
		if n := reg.Counter("sim_replays_total").Value(); n != 0 {
			t.Errorf("screen replayed %d lanes at a limit at the week's total peak, want 0", n)
		}
	})

	t.Run("shorter than two weeks", func(t *testing.T) {
		c := screenCase{
			group: []Workload{screenTrace(2*week-1, 1, 0.5, map[int][2]float64{5: {6, 0}})},
			cfg:   Config{SlotsPerDay: T, DeadlineSlots: 2, Commitment: qos.PoolCommitment{Theta: 0.9}},
			limit: 4,
		}
		if checkScreen(t, "short", c) {
			t.Fatal("a trace shorter than two whole weeks was screened")
		}
	})
}

// recordInjector injects nothing and records every hit in order.
type recordInjector struct{ hits []string }

func (r *recordInjector) Hit(point, key string) faultinject.Outcome {
	r.hits = append(r.hits, point+"/"+key)
	return faultinject.Outcome{}
}

// TestRebuildScreenedInjectorUnscreened pins that an injector sees the
// same hits, in the same order, with the screen as without it: with an
// injector the screen sums the whole trace and replays nothing, even
// for a group its first week would reject. Each side searches on a
// fresh replayer, so the speculation depth, which groups probes into
// passes, starts from the same state.
func TestRebuildScreenedInjectorUnscreened(t *testing.T) {
	const T = 4
	group := []Workload{screenTrace(3*7*T, 1, 0.5, map[int][2]float64{5: {6, 0}, 30: {0, 9}})}
	ctx := context.Background()
	for _, limit := range []float64{4, 7, 20} {
		var plain, screened recordInjector
		cfg := Config{SlotsPerDay: T, DeadlineSlots: 2, Commitment: qos.PoolCommitment{Theta: 0.9}, InjectKey: "s"}

		cfg.Inject = &plain
		var want Aggregate
		if err := want.Rebuild(group); err != nil {
			t.Fatal(err)
		}
		wantOut, err := want.searchKaryWith(ctx, cfg, limit, screenTol, NewBatchReplayer())
		if err != nil {
			t.Fatal(err)
		}

		cfg.Inject = &screened
		var got Aggregate
		rejected, err := got.RebuildScreened(group, cfg, limit)
		if err != nil {
			t.Fatal(err)
		}
		if rejected || len(screened.hits) != 0 {
			t.Fatalf("limit %v: screened with an injector attached (rejected %v, hits %v)", limit, rejected, screened.hits)
		}
		sameAggregate(t, "injector", &got, group)
		gotOut, err := got.searchKaryWith(ctx, cfg, limit, screenTol, NewBatchReplayer())
		if err != nil {
			t.Fatal(err)
		}
		if gotOut != wantOut || len(plain.hits) == 0 || !slices.Equal(screened.hits, plain.hits) {
			t.Errorf("limit %v: outcome %+v hits %v, want %+v hits %v", limit, gotOut, screened.hits, wantOut, plain.hits)
		}
	}
}

// TestRebuildScreenedAllocs gates the screen's cost: warm, a rejection
// and a pass-through allocate nothing.
func TestRebuildScreenedAllocs(t *testing.T) {
	const T = 12
	r := rand.New(rand.NewSource(5))
	group := make([]Workload, 3)
	for i := range group {
		group[i] = Workload{AppID: string(rune('a' + i)), CoS1: make([]float64, 4*7*T), CoS2: make([]float64, 4*7*T)}
		for s := range group[i].CoS1 {
			group[i].CoS1[s], group[i].CoS2[s] = r.Float64(), 2*r.Float64()
		}
	}
	ref, err := NewAggregate(group)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{SlotsPerDay: T, DeadlineSlots: 3, Commitment: qos.PoolCommitment{Theta: 0.99}}
	var agg Aggregate
	for _, limit := range []float64{ref.CoS1Peak() * 0.9, ref.CoS1Peak() + 0.5, math.Inf(1)} {
		if _, err := agg.RebuildScreened(group, cfg, limit); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := agg.RebuildScreened(group, cfg, limit); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 && !poolDropsPuts() {
			t.Errorf("limit %v: warm RebuildScreened allocates %v objects per call, want 0", limit, allocs)
		}
	}
}
