package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestHarnessSelfTest runs all four workloads at toy size, untraced and
// traced, and checks the harness's own promises: every metric of
// BENCHMARK.json is reported under a well-formed name, no operation
// fails, spans nest, and a result compared with itself is within bound.
func TestHarnessSelfTest(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(spec.workloadNames(), " "); got != "table1 failover fleet1k serve" {
		t.Fatalf("BENCHMARK.json workloads: %s", got)
	}
	for _, name := range spec.workloadNames() {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(context.Background(), spec, name,
				runOpts{seed: 2006, seconds: 0.4, traced: traced, size: toySize, workDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: %d of %d operations failed: %v", name, traced, res.Failed, res.Attempted, res.Failures)
			}
			if err := res.conform(spec); err != nil {
				t.Error(err)
			}
			for _, set := range []map[string]metricValue{res.Metrics, res.LayerOnly} {
				for metric, m := range set {
					if !metricName.MatchString(metric) {
						t.Errorf("%s: metric name %q is malformed", name, metric)
					}
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s: %s = %v", name, metric, m.Value)
					}
				}
			}
			if traced {
				checkSpansNest(t, res.SpanFile)
				continue
			}
			out := filepath.Join(t.TempDir(), "run.jsonl")
			if err := appendResult(out, res); err != nil {
				t.Fatal(err)
			}
			var table bytes.Buffer
			if code := compareMain([]string{out, out}, &table); code != 0 {
				t.Errorf("%s: compare with itself exits %d:\n%s", name, code, table.String())
			}
			if rows := strings.Count(table.String(), string(withinBound)); rows != len(spec.EndToEnd) {
				t.Errorf("%s: compare with itself: %d of %d rows within-bound:\n%s", name, rows, len(spec.EndToEnd), table.String())
			}
		}
	}
}

// checkSpansNest reads a Chrome trace_event file and requires every span
// with a parent to lie inside that parent's interval.
func checkSpansNest(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]int `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	type interval struct{ start, end float64 }
	byID := map[int]interval{}
	for _, e := range doc.TraceEvents {
		byID[e.Args["id"]] = interval{e.TS, e.TS + e.Dur}
	}
	const slackUS = 1 // timestamps are rounded to the microsecond grid independently
	children := 0
	for _, e := range doc.TraceEvents {
		parent := e.Args["parent"]
		if parent == 0 {
			continue
		}
		children++
		p, ok := byID[parent]
		if !ok {
			t.Errorf("span %s: parent %d is not in the file", e.Name, parent)
		} else if e.TS < p.start-slackUS || e.TS+e.Dur > p.end+slackUS {
			t.Errorf("span %s [%f, %f] is outside its parent [%f, %f]", e.Name, e.TS, e.TS+e.Dur, p.start, p.end)
		}
	}
	if children == 0 {
		t.Errorf("%s: no span has a parent", path)
	}
}

// TestSeedRobustInputs: the seeds the uncapped generator is known to
// fail on (an app whose allocation exceeds one server), and the default,
// all plan on every workload.
func TestSeedRobustInputs(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 2, 3, 7, 2006} {
		for _, name := range spec.workloadNames() {
			res, err := runWorkload(context.Background(), spec, name,
				runOpts{seed: seed, seconds: 0.05, size: toySize, workDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if res.Failed != 0 {
				t.Errorf("%s seed %d: %d of %d operations failed: %v", name, seed, res.Failed, res.Attempted, res.Failures)
			}
		}
	}
}

// TestCapRule: case-study seed 1 generates an app that cannot fit one
// server; capping leaves no trace above the limit and counts what it
// changed.
func TestCapRule(t *testing.T) {
	f, err := genMix(fullSize.caseStudy, 1)
	if err != nil {
		t.Fatal(err)
	}
	if capped := capFleet(f, capCPUs); capped == 0 {
		t.Error("seed 1 should need capping")
	}
	if again := capFleet(f, capCPUs); again != 0 {
		t.Errorf("%d traces still above the cap after capping", again)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
	if q1, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles = %v, %v, want 0.75, 2.25", q1, q3)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDecl{Name: "op_wall_s", Better: "lower", Bound: 0.10}
	higher := metricDecl{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	noisy := []float64{0.7, 1.0, 1.3, 0.8, 1.2}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	runs := func(xs []float64) []reading {
		out := make([]reading, len(xs))
		for i, x := range xs {
			out[i] = reading{seed: int64(i), value: x}
		}
		return out
	}
	// A set-wide drift past the base's spread that loses two of five
	// seed pairs is not a gain.
	drifted := []float64{0.97, 1.02, 0.95, 1.01, 0.96}
	for _, c := range []struct {
		name         string
		d            metricDecl
		base, change []float64
		want         verdict
	}{
		{"better median, too few pairs won", lower, steady, drifted, withinBound},
		{"same", lower, steady, steady, withinBound},
		{"slower past the bound", lower, steady, scale(steady, 1.2), regressed},
		{"slower inside the bound", lower, steady, scale(steady, 1.05), withinBound},
		{"faster", lower, steady, scale(steady, 0.8), improved},
		{"throughput down", higher, steady, scale(steady, 0.8), regressed},
		{"throughput up", higher, steady, scale(steady, 1.2), improved},
		{"too noisy to tell", lower, noisy, scale(noisy, 1.15), unresolved},
		{"noisy but every run better", lower, noisy, scale(noisy, 0.3), improved},
		{"noisy but every run worse", lower, noisy, scale(noisy, 3), regressed},
	} {
		if got, _, _ := judge(c.d, runs(c.base), runs(c.change)); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for symbol, want := range map[string]string{
		"ropus/internal/sim.(*Aggregate).ReplayBatch":          "sim",
		"ropus/internal/placement.evaluateAll.func1":           "placement",
		"ropus/internal/core.(*Framework).Translate":           "other",
		"main.(*planRun).exec":                                 "bench",
		"ropus/bench.runServe":                                 "bench",
		"runtime.mallocgc":                                     "runtime",
		"runtime/internal/atomic.Xadd":                         "runtime",
		"math.Floor":                                           "",
		"encoding/json.(*encodeState).marshal":                 "",
		"internal/runtime/syscall.Syscall6":                    "",
		"ropus/internal/serve.(*Manager).Submit[go.shape.int]": "serve",
	} {
		got, ok := layerOf(symbol)
		if got != want || ok != (want != "") {
			t.Errorf("layerOf(%q) = %q, %v; want %q", symbol, got, ok, want)
		}
	}
}

// TestFoldProfile folds a real profile of this test burning CPU in the
// harness: the shares are well formed and the burn is charged to bench.
func TestFoldProfile(t *testing.T) {
	prof, err := startCPUProfile()
	if err != nil {
		t.Skip(err) // another profile is running (go test -cpuprofile)
	}
	x := 0.0
	for i := 0; i < 40_000_000; i++ {
		x += math.Sqrt(float64(i))
	}
	shares, err := prof.stop()
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, s := range shares {
		total += s
	}
	if len(shares) > 0 && math.Abs(total-1) > 1e-9 {
		t.Errorf("shares sum to %v (x=%v)", total, x)
	}
	if len(shares) > 0 && shares["bench"] < 0.5 {
		t.Errorf("harness burn charged %v to bench: %v", shares["bench"], shares)
	}
}
