package placement

import (
	"context"
	"fmt"
	"sort"

	"ropus/internal/sim"
)

// Multiple capacity attributes. The paper characterizes workloads "for
// capacity attributes such as CPU, memory, and disk and network
// input-output" and has the simulator report required capacity "for
// each capacity attribute" (sections II and VI-A); its case study then
// manages CPU only. Here CPU is the primary attribute (App.Workload,
// Server.CPUs) and any further attributes ride along in App.Extra /
// Server.Extra: each is replayed with the same two-CoS simulator
// against the server's per-attribute capacity, and a server is feasible
// only when every attribute's commitments are satisfied. The
// consolidation score stays CPU-based, as in the paper.

// Attribute names an additional capacity attribute (for example
// "memory" or "diskio"). The primary CPU attribute has no name.
type Attribute string

// Common attribute names used by the examples and tests; any string
// works.
const (
	AttrMemory  Attribute = "memory"
	AttrDiskIO  Attribute = "diskio"
	AttrNetwork Attribute = "network"
)

// attributeUnion collects the sorted set of extra attributes used by
// any application in the problem.
func attributeUnion(apps []App) []Attribute {
	seen := make(map[Attribute]bool)
	for _, a := range apps {
		for attr := range a.Extra {
			seen[attr] = true
		}
	}
	out := make([]Attribute, 0, len(seen))
	for attr := range seen {
		out = append(out, attr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// validateAttributes checks the multi-attribute invariants: every extra
// workload (its samples validated by App.Prepare) is aligned with the
// primary trace and named consistently; every server provides a
// positive capacity for every attribute in use.
func validateAttributes(p *Problem) error {
	attrs := attributeUnion(p.Apps)
	if len(attrs) == 0 {
		return nil
	}
	for _, a := range p.Apps {
		for attr, w := range a.Extra {
			if w.AppID != a.ID {
				return fmt.Errorf("placement: app %q attribute %q names workload %q",
					a.ID, attr, w.AppID)
			}
			if len(w.CoS1) != len(a.Workload.CoS1) {
				return fmt.Errorf("placement: app %q attribute %q has %d slots, want %d",
					a.ID, attr, len(w.CoS1), len(a.Workload.CoS1))
			}
		}
	}
	for _, s := range p.Servers {
		for _, attr := range attrs {
			if c, ok := s.Extra[attr]; !ok || c <= 0 {
				return fmt.Errorf("placement: server %q lacks a positive capacity for attribute %q",
					s.ID, attr)
			}
		}
	}
	return nil
}

// evalAttributes simulates every extra attribute of the hosted apps
// against the server's per-attribute capacity. It returns the required
// capacities and whether all attributes fit. The apps slice must be
// non-empty and sorted.
func (e *evaluator) evalAttributes(ctx context.Context, sc *scratch, srv Server, apps []int) (map[Attribute]float64, bool, error) {
	attrs := e.p.attrs
	if len(attrs) == 0 {
		return nil, true, nil
	}
	required := make(map[Attribute]float64, len(attrs))
	allFit := true
	cfg := e.simConfig(srv)
	agg := aggPool.Get().(*sim.Aggregate)
	defer aggPool.Put(agg)
	for _, attr := range attrs {
		sc.workloads = sc.workloads[:0]
		for _, a := range apps {
			if w, ok := e.p.Apps[a].Extra[attr]; ok {
				sc.workloads = append(sc.workloads, w)
			}
		}
		if len(sc.workloads) == 0 {
			required[attr] = 0
			continue
		}
		if err := agg.Rebuild(sc.workloads); err != nil {
			return nil, false, err
		}
		req, _, ok, err := agg.RequiredCapacity(ctx, cfg, srv.Extra[attr], e.p.tolerance())
		if err != nil {
			return nil, false, err
		}
		required[attr] = req
		if !ok {
			allFit = false
		}
	}
	return required, allFit, nil
}
