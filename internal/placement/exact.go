package placement

import (
	"context"
	"errors"
	"fmt"
)

// Exact consolidation by branch and bound. The authors' earlier work
// solved consolidation with an Integer Linear Programming bin-packing
// formulation and found it "computationally intensive" and impractical
// for larger exercises (paper section VIII) — which motivated the
// genetic algorithm. This exact solver exists for the same reason the
// ILP did: on small instances it certifies the true minimum number of
// servers, giving the search heuristics something to be measured
// against (see TestGAMatchesExactOnSmallInstances and the ablation
// benchmarks).
//
// The search assigns applications in decreasing peak-allocation order.
// At each level an application may join any existing feasible group or
// open one new server (identical servers make further branches
// symmetric, so only one "new server" branch is explored when servers
// are interchangeable). Feasibility uses the same simulator-backed
// evaluator as every other search, so "fits" means exactly what it
// means for the GA. Branches that cannot beat the incumbent are pruned.

// ErrSearchBudget is returned when the branch-and-bound node budget is
// exhausted before the search completes; the instance is too large for
// exact solving.
var ErrSearchBudget = errors.New("placement: exact search budget exhausted")

// Exact finds an assignment using the provably minimal number of
// servers, exploring at most maxNodes branch-and-bound nodes. It
// requires identical servers (the symmetry the solver exploits).
// Cancelling ctx aborts the search between branch-and-bound nodes with
// a wrapped ctx error; a partial exact search certifies nothing, so
// there is no best-so-far result.
func Exact(ctx context.Context, p *Problem, maxNodes int) (*Plan, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if maxNodes <= 0 {
		return nil, fmt.Errorf("placement: maxNodes %d <= 0", maxNodes)
	}
	for _, s := range p.Servers[1:] {
		if s.CPUs != p.Servers[0].CPUs || s.CPUCapacity != p.Servers[0].CPUCapacity {
			return nil, errors.New("placement: exact search needs identical servers")
		}
	}

	ev := newEvaluator(p)
	sc := ev.acquire()
	defer ev.release(sc)

	s := &exactSearch{
		ctx:      ctx,
		p:        p,
		ev:       ev,
		sc:       sc,
		order:    byDecreasingPeak(p), // big items first tighten the search
		groups:   make([][]int, 0, len(p.Servers)),
		best:     len(p.Servers) + 1,
		maxNodes: maxNodes,
	}
	if err := s.explore(0); err != nil {
		return nil, err
	}
	if s.bestGroups == nil {
		return nil, ErrNoFeasible
	}

	assignment := make(Assignment, len(p.Apps))
	for srv, group := range s.bestGroups {
		for _, app := range group {
			assignment[app] = srv
		}
	}
	return ev.evaluate(ctx, assignment)
}

// exactSearch carries the branch-and-bound state.
type exactSearch struct {
	ctx        context.Context
	p          *Problem
	ev         *evaluator
	sc         *scratch
	order      []int
	groups     [][]int
	best       int
	bestGroups [][]int
	nodes      int
	maxNodes   int
}

// explore assigns order[level:] recursively.
func (s *exactSearch) explore(level int) error {
	s.nodes++
	if s.nodes > s.maxNodes {
		return ErrSearchBudget
	}
	if err := s.ctx.Err(); err != nil {
		return fmt.Errorf("placement: exact search: %w", err)
	}
	if len(s.groups) >= s.best {
		return nil // cannot beat the incumbent
	}
	if level == len(s.order) {
		s.best = len(s.groups)
		s.bestGroups = make([][]int, len(s.groups))
		for i, g := range s.groups {
			s.bestGroups[i] = append([]int(nil), g...)
		}
		return nil
	}
	app := s.order[level]

	// Try joining each open group.
	for gi := range s.groups {
		candidate := withApp(nil, s.groups[gi], app)
		usage, err := s.ev.evalServer(s.ctx, s.sc, gi, candidate)
		if err != nil {
			return err
		}
		if !usage.feasible {
			continue
		}
		saved := s.groups[gi]
		s.groups[gi] = candidate
		if err := s.explore(level + 1); err != nil {
			return err
		}
		s.groups[gi] = saved
	}

	// Open one new server (identical servers: a single branch suffices).
	if len(s.groups) < len(s.p.Servers) && len(s.groups)+1 < s.best {
		gi := len(s.groups)
		usage, err := s.ev.evalServer(s.ctx, s.sc, gi, []int{app})
		if err != nil {
			return err
		}
		if usage.feasible {
			s.groups = append(s.groups, []int{app})
			if err := s.explore(level + 1); err != nil {
				return err
			}
			s.groups = s.groups[:len(s.groups)-1]
		}
	}
	return nil
}
