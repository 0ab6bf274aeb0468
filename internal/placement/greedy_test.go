package placement

import (
	"context"
	"reflect"
	"testing"
)

// referenceGreedy is the packers' full scan from first principles: every
// server, empty or not, is evaluated for every app, and the pick is the
// lowest feasible index (first fit) or the least headroom, ties to the
// lowest index (best fit). It returns nil when some app fits nowhere.
func referenceGreedy(t *testing.T, p *Problem, firstFit bool) Assignment {
	t.Helper()
	groups := make([][]int, len(p.Servers))
	a := make(Assignment, len(p.Apps))
	for _, app := range byDecreasingPeak(p) {
		chosen, headroom := -1, 0.0
		for s, srv := range p.Servers {
			u := referenceUsage(t, p, srv, withApp(nil, groups[s], app))
			if !u.Feasible {
				continue
			}
			h := srv.Capacity() - u.Required
			if chosen < 0 || (!firstFit && h < headroom) {
				chosen, headroom = s, h
			}
		}
		if chosen < 0 {
			return nil
		}
		groups[chosen] = withApp(nil, groups[chosen], app)
		a[app] = chosen
	}
	return a
}

// TestGreedyMatchesFullScan holds both packers, which stop first fit at
// the first feasible server and evaluate one empty server per shape, to
// the full scan on seeded problems with two server shapes.
func TestGreedyMatchesFullScan(t *testing.T) {
	packers := map[string]struct {
		firstFit bool
		run      func(context.Context, *Problem) (*Plan, error)
	}{
		"first fit": {true, FirstFitDecreasing},
		"best fit":  {false, BestFitDecreasing},
	}
	placed := 0
	for seed := int64(1); seed <= 12; seed++ {
		p := lightProblem(seed, 7, 6, nil)
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		for name, pk := range packers {
			want := referenceGreedy(t, p, pk.firstFit)
			plan, err := pk.run(context.Background(), p)
			if want == nil {
				if err == nil {
					t.Fatalf("seed %d %s: placed %v, the full scan places nothing", seed, name, plan.Assignment)
				}
				continue
			}
			if err != nil {
				t.Fatalf("seed %d %s: %v, the full scan places %v", seed, name, err, want)
			}
			if !reflect.DeepEqual(plan.Assignment, want) {
				t.Fatalf("seed %d %s: assignment %v, full scan %v", seed, name, plan.Assignment, want)
			}
			placed++
		}
	}
	t.Logf("%d of 24 packings placed every app", placed)
	if placed < 12 {
		t.Errorf("only %d of 24 packings placed every app; the problems no longer exercise the packers", placed)
	}
}
