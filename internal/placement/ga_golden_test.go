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

// gaGoldenCases spans the island counts, the greedy warm start and the
// migration schedules on two problems: the perfect bin-packing the island
// suite uses, and a seeded problem with varied traces and a memory
// attribute, where scores are continuous and the search keeps improving
// long enough for the island counts to end on different plans.
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
		for _, islands := range []int{0, 1, 2, 4} {
			intervals := []int{0}
			if islands > 1 {
				intervals = []int{0, 1, 3}
			}
			for _, greedy := range []bool{true, false} {
				for _, interval := range intervals {
					cfg := islandGA(pr.seed, islands)
					cfg.SeedGreedy = greedy
					cfg.MigrationInterval = interval
					cases = append(cases, gaGoldenCase{
						name:    fmt.Sprintf("%s/islands=%d/greedy=%v/interval=%d", pr.name, islands, greedy, interval),
						problem: pr.problem, initial: pr.initial, cfg: cfg,
					})
				}
			}
		}
	}
	return cases
}

// gaCancelAfter is the required-capacity search, counted from the start
// of a varied/islands=0 run, on which the mid-search cancel lands: past
// the 665 searches of seeding, about halfway to the 2 016 of the full run.
const gaCancelAfter = 1200

// TestGoldenGAPlans pins the genetic search's plans to the fingerprints
// in testdata/ga_plans.txt, captured from the build that still ran a
// separate single-population loop for Islands 0 and 1. Every plan must
// stay byte-identical; regenerate with -update only for an intended
// change of the search.
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

	// A cancel in the middle of a one-island search: the injector cancels
	// on a fixed required-capacity search and fails it, so the generation
	// it lands in is discarded whatever the worker count, and the plan is
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
	plan, err := Consolidate(ctx, p, initial, islandGA(2006, 0))
	if err != nil {
		t.Fatalf("cancelled search: %v", err)
	}
	if !plan.Truncated {
		t.Errorf("the cancel after %d searches did not land mid-search (%d searches ran)", gaCancelAfter, searches.Load())
	}
	fmt.Fprintf(&out, "varied/islands=0/cancel=%d %s\n", gaCancelAfter, planFingerprint(plan))

	// The pin must be able to tell the island counts apart.
	long := "varied/islands=0/greedy=true/interval=0"
	if g := generations[long]; g < 20 {
		t.Errorf("%s ran %d generations, want >= 20", long, g)
	}
	for _, pair := range [][2]string{{"0", "2"}, {"0", "4"}, {"2", "4"}} {
		a := fingerprints["varied/islands="+pair[0]+"/greedy=true/interval=0"]
		b := fingerprints["varied/islands="+pair[1]+"/greedy=true/interval=0"]
		if a == b {
			t.Errorf("islands=%s and islands=%s return the same plan; the golden cannot tell them apart", pair[0], pair[1])
		}
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
