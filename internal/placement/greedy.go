package placement

import (
	"context"
	"fmt"
	"slices"
	"sort"
)

// Greedy baselines for the consolidation exercise. The paper compares
// its genetic algorithm against greedy algorithms (section VIII); these
// are classic bin-packing heuristics driven by the same simulator-based
// feasibility test, so the comparison isolates the search strategy.

// FirstFitDecreasing places applications in order of decreasing peak
// allocation, each onto the first (lowest-index) server where the
// commitments remain satisfiable. It returns an error if some
// application fits on no server. Cancelling ctx aborts between
// per-application placement steps with a wrapped ctx error (greedy
// packings have no useful partial result).
func FirstFitDecreasing(ctx context.Context, p *Problem) (*Plan, error) {
	return greedy(ctx, p, true)
}

// BestFitDecreasing places applications in order of decreasing peak
// allocation, each onto the feasible server whose resulting required
// capacity leaves the least headroom (the tightest fit).
func BestFitDecreasing(ctx context.Context, p *Problem) (*Plan, error) {
	return greedy(ctx, p, false)
}

// greedy packs the apps one by one onto the first feasible server
// (firstFit) or the feasible server with the least headroom, ties to
// the lowest index. Empty servers of one shape hold the same record for
// an app, so only the first of each shape is evaluated: the others can
// neither fit where it does not nor beat it on a tie. An injecting run
// gives every server its own shape (see newEvaluator), so it skips none.
func greedy(ctx context.Context, p *Problem, firstFit bool) (*Plan, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ev := newEvaluator(p)
	sc := ev.acquire()
	defer ev.release(sc)

	order := byDecreasingPeak(p)
	groups := make([][]int, len(p.Servers))
	assignment := make(Assignment, len(p.Apps))
	var trial []int          // the candidate group, rebuilt per (app, server)
	var emptyShapes []uint64 // shapes of the empty servers tried for this app
	for _, app := range order {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("placement: greedy packing: %w", err)
		}
		chosen, headroom := -1, 0.0
		emptyShapes = emptyShapes[:0]
		for s := range p.Servers {
			if len(groups[s]) == 0 {
				if slices.Contains(emptyShapes, ev.serverSigs[s]) {
					continue
				}
				emptyShapes = append(emptyShapes, ev.serverSigs[s])
			}
			trial = withApp(trial, groups[s], app)
			usage, err := ev.evalServer(ctx, sc, s, trial)
			if err != nil {
				return nil, err
			}
			if !usage.feasible {
				continue
			}
			if h := p.Servers[s].Capacity() - usage.required; chosen < 0 || h < headroom {
				chosen, headroom = s, h
			}
			if firstFit {
				break
			}
		}
		if chosen < 0 {
			return nil, fmt.Errorf("placement: app %q fits on no server", p.Apps[app].ID)
		}
		groups[chosen] = withApp(nil, groups[chosen], app)
		assignment[app] = chosen
	}
	return ev.evaluate(ctx, assignment)
}

// byDecreasingPeak orders the applications by decreasing peak total
// (CoS1+CoS2) allocation, ties in problem order: the packers and the
// exact search place the big items first. Each peak is the one
// App.Prepare recorded, so p must have been validated.
func byDecreasingPeak(p *Problem) []int {
	order := make([]int, len(p.Apps))
	peaks := make([]float64, len(p.Apps))
	for i, a := range p.Apps {
		order[i] = i
		peaks[i] = a.peak
	}
	sort.SliceStable(order, func(i, j int) bool { return peaks[order[i]] > peaks[order[j]] })
	return order
}

// withApp writes the sorted group with app inserted in order into buf
// (reusing its storage) and returns it.
func withApp(buf, group []int, app int) []int {
	i := sort.SearchInts(group, app)
	buf = append(buf[:0], group[:i]...)
	buf = append(buf, app)
	return append(buf, group[i:]...)
}
