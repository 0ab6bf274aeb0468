package placement

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"ropus/internal/faultinject"
	"ropus/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// gaGoldenCase is one pinned search: a problem, its starting assignment
// and the GA configuration it runs with.
type gaGoldenCase struct {
	name    string
	problem func() *Problem
	initial func(*Problem) Assignment
	cfg     GAConfig
}

// gaGoldenCases spans the greedy warm start on two problems: a perfect
// bin-packing, and a seeded problem with varied traces and a memory
// attribute, where scores are continuous and the search keeps improving
// long enough for the warm start to change the plan it ends on.
func gaGoldenCases() []gaGoldenCase {
	binPack := func() *Problem { return binPackProblem([]float64{6, 6, 4, 4, 3, 3, 2}, 7, 10) }
	allOnFirst := func(p *Problem) Assignment { return make(Assignment, len(p.Apps)) }
	varied := func() *Problem { return lightProblem(2006, 14, 14, nil) }
	onePerServer := func(p *Problem) Assignment {
		a := make(Assignment, len(p.Apps))
		for i := range a {
			a[i] = i
		}
		return a
	}
	var cases []gaGoldenCase
	for _, pr := range []struct {
		name    string
		problem func() *Problem
		initial func(*Problem) Assignment
		seed    int64
	}{
		{"binpack", binPack, allOnFirst, 11},
		{"varied", varied, onePerServer, 2006},
	} {
		for _, greedy := range []bool{true, false} {
			cfg := smallGA(pr.seed)
			cfg.SeedGreedy = greedy
			cases = append(cases, gaGoldenCase{
				name:    fmt.Sprintf("%s/greedy=%v", pr.name, greedy),
				problem: pr.problem, initial: pr.initial, cfg: cfg,
			})
		}
	}
	return cases
}

// gaCancelAfter is the required-capacity search, counted from the start
// of a varied run, on which the mid-search cancel lands: past the 665
// searches of seeding, about halfway to the 2 016 of the full run.
const gaCancelAfter = 1200

// TestGoldenGAPlans pins the genetic search's plans to the fingerprints
// in testdata/ga_plans.txt. Every plan must stay byte-identical;
// regenerate with -update only for an intended change of the search.
func TestGoldenGAPlans(t *testing.T) {
	var out bytes.Buffer
	fingerprints := map[string]string{}
	generations := map[string]int64{}
	for _, tc := range gaGoldenCases() {
		p := tc.problem()
		reg := telemetry.NewRegistry()
		p.Hooks = telemetry.New(reg, nil)
		plan, err := Consolidate(context.Background(), p, tc.initial(p), tc.cfg)
		fingerprints[tc.name] = planFingerprint(plan)
		if err != nil {
			fingerprints[tc.name] = "err=" + err.Error()
		}
		generations[tc.name] = reg.Counter("ga_generations_total").Value()
		fmt.Fprintf(&out, "%s %s\n", tc.name, fingerprints[tc.name])
	}

	// A cancel in the middle of a search: the injector cancels on a
	// fixed required-capacity search and fails it, so the generation it
	// lands in is discarded whatever the worker count, and the plan is
	// the best of the generations before it.
	p := lightProblem(2006, 14, 14, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var searches atomic.Int64
	p.Inject = faultinject.Func(func(point, key string) faultinject.Outcome {
		if point == "sim.required_capacity" && searches.Add(1) == gaCancelAfter {
			cancel()
			return faultinject.Outcome{Err: errors.New("cancelled mid-search")}
		}
		return faultinject.Outcome{}
	})
	initial := make(Assignment, len(p.Apps))
	for i := range initial {
		initial[i] = i
	}
	plan, err := Consolidate(ctx, p, initial, smallGA(2006))
	if err != nil {
		t.Fatalf("cancelled search: %v", err)
	}
	if !plan.Truncated {
		t.Errorf("the cancel after %d searches did not land mid-search (%d searches ran)", gaCancelAfter, searches.Load())
	}
	fmt.Fprintf(&out, "varied/cancel=%d %s\n", gaCancelAfter, planFingerprint(plan))

	// The pin must run long enough to mean something, and be able to
	// tell the warm start apart.
	long := "varied/greedy=true"
	if g := generations[long]; g < 20 {
		t.Errorf("%s ran %d generations, want >= 20", long, g)
	}
	if fingerprints[long] == fingerprints["varied/greedy=false"] {
		t.Error("greedy=true and greedy=false return the same plan on varied; the golden cannot tell them apart")
	}

	path := filepath.Join("testdata", "ga_plans.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("GA plans differ from %s (run with -update to regenerate):\n got:\n%s\nwant:\n%s", path, out.Bytes(), want)
	}
}
