package placement

import (
	"context"
	"fmt"

	"ropus/internal/stats"
)

// Correlation-aware placement. The paper's related-work discussion
// (section VIII) suggests that "heuristic search approaches that also
// take into account correlations in resource demands among workloads
// may also be worth exploring": two workloads whose demands peak
// together multiplex poorly, while anti-correlated workloads share
// capacity well. LeastCorrelatedFit implements that idea as a greedy
// heuristic, giving the repository a third baseline to compare against
// the genetic search (see BenchmarkAblationPlacementSearch).

// LeastCorrelatedFit places applications in order of decreasing peak
// allocation; each application goes to the feasible *used* server whose
// current occupants' aggregate demand correlates least with the
// application's demand (the most anti-correlated home). A new server is
// opened only when no used server can host the application, so
// consolidation still comes first and correlation decides between
// feasible homes — the multiplexing intuition without over-spreading.
func LeastCorrelatedFit(ctx context.Context, p *Problem) (*Plan, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ev := newEvaluator(p)
	sc := ev.acquire()
	defer ev.release(sc)

	// Total per-slot allocation per app, reused for correlations.
	totals := make([][]float64, len(p.Apps))
	for i, a := range p.Apps {
		tot := make([]float64, len(a.Workload.CoS1))
		for j := range tot {
			tot[j] = a.Workload.CoS1[j] + a.Workload.CoS2[j]
		}
		totals[i] = tot
	}

	order := byDecreasingPeak(p)
	groups := make([][]int, len(p.Servers))
	serverTotals := make([][]float64, len(p.Servers))
	assignment := make(Assignment, len(p.Apps))
	var trial []int // the candidate group, rebuilt per (app, server)

	for _, app := range order {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("placement: least-correlated fit: %w", err)
		}
		bestServer := -1
		bestCorr := 0.0
		firstEmpty := -1
		for s := range p.Servers {
			if len(groups[s]) == 0 {
				if firstEmpty < 0 {
					firstEmpty = s
				}
				continue // new servers only as a last resort
			}
			trial = withApp(trial, groups[s], app)
			usage, err := ev.evalServer(ctx, sc, s, trial)
			if err != nil {
				return nil, err
			}
			if !usage.feasible {
				continue
			}
			corr, err := stats.Correlation(serverTotals[s], totals[app])
			if err != nil {
				return nil, err
			}
			if bestServer < 0 || corr < bestCorr {
				bestServer = s
				bestCorr = corr
			}
		}
		if bestServer < 0 && firstEmpty >= 0 {
			usage, err := ev.evalServer(ctx, sc, firstEmpty, []int{app})
			if err != nil {
				return nil, err
			}
			if usage.feasible {
				bestServer = firstEmpty
			}
		}
		if bestServer < 0 {
			return nil, fmt.Errorf("placement: app %q fits on no server", p.Apps[app].ID)
		}
		groups[bestServer] = withApp(nil, groups[bestServer], app)
		if serverTotals[bestServer] == nil {
			serverTotals[bestServer] = make([]float64, len(totals[app]))
		}
		for j, v := range totals[app] {
			serverTotals[bestServer][j] += v
		}
		assignment[app] = bestServer
	}
	return ev.evaluate(ctx, assignment)
}
