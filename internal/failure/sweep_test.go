package failure

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ropus/internal/checkpoint"
	"ropus/internal/faultinject"
	"ropus/internal/placement"
	"ropus/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// TestAnalyzeMultiGolden pins AnalyzeMulti's serialized report — which
// no cmd/ropus golden covers — to bytes captured before the three sweeps
// were folded into one: the 4-server fixture at k=2, and a one-server
// pool whose only combination leaves no survivor (infeasible, not an
// error).
func TestAnalyzeMultiGolden(t *testing.T) {
	ctx := context.Background()
	in, base, err := sweepInput(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool4, err := AnalyzeMulti(ctx, in, base, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := problem([]float64{5}, 1, 10)
	base1, err := placement.Evaluate(p, placement.Assignment{0})
	if err != nil {
		t.Fatal(err)
	}
	pool1, err := AnalyzeMulti(ctx, Input{Problem: p, FailureApps: failureApps(p, 0.5), GA: ga()}, base1, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := append(reportJSON(t, struct{ Pool4K2, Pool1K1 *MultiReport }{pool4, pool1}), '\n')

	path := filepath.Join("testdata", "multi_k2.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("AnalyzeMulti report differs from %s (run with -update to regenerate)", path)
	}
}

// The three entry points are one sweep behind three spec generators, so
// the properties each copy used to re-implement are checked once, over
// all of them, on the sweepInput pool (srv-a..srv-d, one app each).

// sweepView is a report of either type in common terms.
type sweepView struct {
	keys      []string // each scenario's "failure.scenario" injection key, in report order
	scenarios [][]byte // each scenario's JSON
	errs      []error  // each scenario's Err
	truncated bool
	retries   [3]int // Retries(): extra, recovered, gaveUp
}

func viewOf[S any](t *testing.T, scenarios []S, key func(S) string, err func(S) error, truncated bool, extra, recovered, gaveUp int) sweepView {
	v := sweepView{truncated: truncated, retries: [3]int{extra, recovered, gaveUp}}
	for _, sc := range scenarios {
		v.keys = append(v.keys, key(sc))
		v.scenarios = append(v.scenarios, reportJSON(t, sc))
		v.errs = append(v.errs, err(sc))
	}
	return v
}

func multiView(t *testing.T, r *MultiReport, key func(MultiScenario) string) sweepView {
	extra, recovered, gaveUp := r.Retries()
	return viewOf(t, r.Scenarios, key, func(sc MultiScenario) error { return sc.Err }, r.Truncated, extra, recovered, gaveUp)
}

// entryPoints lists each sweep API with the injection keys its
// scenarios have on the sweepInput pool, in sweep order.
var entryPoints = []struct {
	name string
	keys []string
	run  func(t *testing.T, ctx context.Context, in Input, base *placement.Plan) (sweepView, error)
}{
	{"Analyze", []string{"srv-a", "srv-b", "srv-c", "srv-d"},
		func(t *testing.T, ctx context.Context, in Input, base *placement.Plan) (sweepView, error) {
			r, err := Analyze(ctx, in, base)
			if err != nil {
				return sweepView{}, err
			}
			extra, recovered, gaveUp := r.Retries()
			return viewOf(t, r.Scenarios, func(sc Scenario) string { return sc.FailedServer },
				func(sc Scenario) error { return sc.Err }, r.Truncated, extra, recovered, gaveUp), nil
		}},
	{"AnalyzeMulti", []string{"srv-a+srv-b", "srv-a+srv-c", "srv-a+srv-d", "srv-b+srv-c", "srv-b+srv-d", "srv-c+srv-d"},
		func(t *testing.T, ctx context.Context, in Input, base *placement.Plan) (sweepView, error) {
			r, err := AnalyzeMulti(ctx, in, base, 2)
			if err != nil {
				return sweepView{}, err
			}
			return multiView(t, r, MultiScenario.Key), nil
		}},
	{"AnalyzeScenarios", []string{"loss/srv-b", "zone-a", "cascade", "maintenance"},
		func(t *testing.T, ctx context.Context, in Input, base *placement.Plan) (sweepView, error) {
			r, err := AnalyzeScenarios(ctx, in, base, specsFor(), testEconomics())
			if err != nil {
				return sweepView{}, err
			}
			return multiView(t, r, func(sc MultiScenario) string { return sc.Name }), nil
		}},
}

func TestSweepProperties(t *testing.T) {
	ctx := context.Background()
	for _, ep := range entryPoints {
		t.Run(ep.name, func(t *testing.T) {
			sweep := func(ctx context.Context, workers int, mutate func(*Input)) sweepView {
				t.Helper()
				in, base, err := sweepInput(workers, nil)
				if err != nil {
					t.Fatal(err)
				}
				if mutate != nil {
					mutate(&in)
				}
				v, err := ep.run(t, ctx, in, base)
				if err != nil {
					t.Fatal(err)
				}
				return v
			}
			clean := sweep(ctx, 1, nil)
			if !reflect.DeepEqual(clean.keys, ep.keys) || clean.truncated {
				t.Fatalf("clean sweep: scenarios %v truncated=%v, want %v in that order", clean.keys, clean.truncated, ep.keys)
			}

			// An error injected on one scenario is recorded on it, leaves
			// the others as a clean sweep computes them, and is accounted
			// the same way by every entry point.
			hurt := sweep(ctx, 1, func(in *Input) {
				in.Retry = retryPolicy()
				in.Inject = faultinject.MustScript(1,
					faultinject.Rule{Point: "failure.scenario", Key: ep.keys[1], Transient: true})
			})
			for i := range ep.keys {
				switch {
				case i == 1 && hurt.errs[i] == nil:
					t.Errorf("scenario %s: the injected error was not recorded", ep.keys[i])
				case i != 1 && !bytes.Equal(hurt.scenarios[i], clean.scenarios[i]):
					t.Errorf("scenario %s changed because %s errored", ep.keys[i], ep.keys[1])
				}
			}
			if want := [3]int{2, 0, 1}; hurt.retries != want {
				t.Errorf("Retries() = %v, want %v", hurt.retries, want)
			}

			// Cancelling while scenario i is being analyzed keeps a
			// contiguous prefix of the sweep order that includes i, flagged
			// Truncated; the sequential sweep keeps exactly [0, i]. (With
			// more workers than scenarios the rest may already be in flight.)
			const i = 1
			for _, workers := range []int{1, 8} {
				cctx, cancel := context.WithCancel(ctx)
				cut := sweep(cctx, workers, func(in *Input) {
					in.Inject = faultinject.Func(func(point, key string) faultinject.Outcome {
						if point == "failure.scenario" && key == ep.keys[i] {
							cancel()
						}
						return faultinject.Outcome{}
					})
				})
				cancel()
				n := len(cut.keys)
				if n <= i || !reflect.DeepEqual(cut.keys, ep.keys[:n]) {
					t.Errorf("workers=%d: kept %v, want a prefix of %v through %s", workers, cut.keys, ep.keys, ep.keys[i])
				}
				if cut.truncated != (n < len(ep.keys)) {
					t.Errorf("workers=%d: Truncated=%v with %d of %d scenarios", workers, cut.truncated, n, len(ep.keys))
				}
				if workers == 1 && n != i+1 {
					t.Errorf("sequential sweep kept %d scenarios, want exactly %d", n, i+1)
				}
			}

			// A journaled sweep resumes with every scenario replayed and
			// none recomputed.
			path := filepath.Join(t.TempDir(), "sweep.ckpt")
			j, err := checkpoint.Open(path, 1, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			first := sweep(ctx, 8, func(in *Input) { in.Journal = j })
			j.Close()
			reg := telemetry.NewRegistry()
			j, err = checkpoint.Open(path, 1, true, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			again := sweep(ctx, 8, func(in *Input) {
				in.Journal = j
				in.Hooks = telemetry.New(reg, nil)
				in.Inject = faultinject.Func(func(point, key string) faultinject.Outcome {
					t.Errorf("scenario %q recomputed despite a complete journal", key)
					return faultinject.Outcome{}
				})
			})
			if !reflect.DeepEqual(again.scenarios, first.scenarios) {
				t.Error("replayed report differs from the one that wrote the journal")
			}
			if got := reg.Snapshot().Counters["failure_scenarios_replayed_total"]; got != int64(len(ep.keys)) {
				t.Errorf("failure_scenarios_replayed_total = %d, want %d", got, len(ep.keys))
			}
		})
	}
}

// TestSweepSkipsUnusedServers: only servers hosting applications are
// failure scenarios, so k is bounded by the servers in use.
func TestSweepSkipsUnusedServers(t *testing.T) {
	ctx := context.Background()
	p := problem([]float64{2, 3}, 4, 10)
	base, err := placement.Evaluate(p, placement.Assignment{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	in := Input{Problem: p, FailureApps: failureApps(p, 0.5), GA: ga()}
	single, err := Analyze(ctx, in, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(single.Scenarios) != 1 || single.Scenarios[0].FailedServer != "srv-b" {
		t.Errorf("Analyze swept %+v, want the one used server srv-b", single.Scenarios)
	}
	multi, err := AnalyzeMulti(ctx, in, base, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(multi.Scenarios) != 1 || multi.Scenarios[0].Key() != "srv-b" {
		t.Errorf("AnalyzeMulti(k=1) swept %+v, want the one used server srv-b", multi.Scenarios)
	}
	if _, err := AnalyzeMulti(ctx, in, base, 2); err == nil {
		t.Error("k=2 with one server in use must be an error")
	}
}

// TestSweepJournalIsShared: every entry point files its records under
// one unit keyed by the spec, so the same computation reached through
// another entry point is a replay.
func TestSweepJournalIsShared(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	j, err := checkpoint.Open(path, 1, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	in, base, err := sweepInput(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	in.Journal = j
	single, err := Analyze(ctx, in, base)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	if j, err = checkpoint.Open(path, 1, true, nil); err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	in.Journal = j
	in.Inject = faultinject.Func(func(point, key string) faultinject.Outcome {
		t.Errorf("scenario %q recomputed though Analyze journaled it", key)
		return faultinject.Outcome{}
	})
	multi, err := AnalyzeMulti(ctx, in, base, 1)
	if err != nil {
		t.Fatal(err)
	}
	var specs []ScenarioSpec
	for _, sc := range single.Scenarios {
		specs = append(specs, ScenarioSpec{Name: sc.FailedServer, Servers: []string{sc.FailedServer}})
	}
	named, err := AnalyzeScenarios(ctx, in, base, specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range single.Scenarios {
		for _, other := range []MultiScenario{multi.Scenarios[i], named.Scenarios[i]} {
			if !bytes.Equal(reportJSON(t, sc.Plan), reportJSON(t, other.Plan)) || other.Key() != sc.FailedServer {
				t.Errorf("scenario %s: replay through another entry point differs", sc.FailedServer)
			}
		}
	}
}

// TestSweepIgnoresPreUnificationRecords: journals written before the
// sweeps were unified hold "failure.scenario" (Scenario) and
// "failure.multi" records. They must never be decoded as the engine's
// record: a resumed old journal recomputes and reports the same bytes.
func TestSweepIgnoresPreUnificationRecords(t *testing.T) {
	ctx := context.Background()
	in, base, err := sweepInput(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Analyze(ctx, in, base)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "old.ckpt")
	j, err := checkpoint.Open(path, 1, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range want.Scenarios {
		// A poisoned verdict, filed the old way (server-ID key) and, in
		// case a lookup ever mixed the two up, under today's key too.
		old := Scenario{FailedServer: sc.FailedServer, AffectedApps: []string{"poison"}, Attempts: 9}
		spec := ScenarioSpec{Name: sc.FailedServer, Servers: []string{sc.FailedServer}}.normalized()
		h := checkpoint.NewHasher()
		spec.fold(h)
		for _, key := range []uint64{checkpoint.NewHasher().String(sc.FailedServer).Sum(), h.Sum()} {
			for _, unit := range []string{"failure.scenario", "failure.multi"} {
				if err := j.Append(unit, key, old); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	j.Close()

	reg := telemetry.NewRegistry()
	if j, err = checkpoint.Open(path, 1, true, nil); err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	in.Journal = j
	in.Hooks = telemetry.New(reg, nil)
	got, err := Analyze(ctx, in, base)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportJSON(t, got), reportJSON(t, want)) {
		t.Error("a pre-unification journal changed the report")
	}
	if n := reg.Snapshot().Counters["failure_scenarios_replayed_total"]; n != 0 {
		t.Errorf("%d scenarios replayed from records of another type, want 0", n)
	}
}
