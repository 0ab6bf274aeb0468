package sim

import (
	"context"
	"fmt"
	"math"

	"ropus/internal/telemetry"
)

// searchBisect is the scalar reference bisection: one replayScalar per
// probe. It is the reference the batched-search parity suites, the
// golden corpus and the benchmarks pin Search against.
func (a *Aggregate) searchBisect(ctx context.Context, cfg Config, limit, tol float64) (SearchOutcome, error) {
	h := telemetry.OrNop(cfg.Hooks)
	h.Counter("sim_searches_total").Inc()
	iterations := h.Counter("sim_search_iterations_total")
	// The workloads cannot fit at any capacity <= limit if the
	// guaranteed class alone exceeds it.
	if a.cos1Peak > limit {
		cfg.Capacity = limit
		res, err := a.replayScalar(cfg)
		h.Counter("sim_search_infeasible_total").Inc()
		return SearchOutcome{Capacity: limit, Result: res}, err
	}

	hi := math.Min(limit, a.totalPeak) // capacity beyond the total peak is never needed
	if hi <= 0 {
		hi = tol // all-zero workloads: any positive capacity fits
	}
	cfg.Capacity = hi
	hiRes, err := a.replayScalar(cfg)
	if err != nil {
		return SearchOutcome{}, err
	}
	if !hiRes.Fits(cfg.Commitment.Theta) {
		// θ or deadline unsatisfiable even at the peak: try the full
		// limit before giving up (deadline backlogs can need headroom).
		if hi < limit {
			cfg.Capacity = limit
			hiRes, err = a.replayScalar(cfg)
			if err != nil {
				return SearchOutcome{}, err
			}
			hi = limit
		}
		if !hiRes.Fits(cfg.Commitment.Theta) {
			h.Counter("sim_search_infeasible_total").Inc()
			return SearchOutcome{Capacity: hi, Result: hiRes}, nil
		}
	}

	lo := a.cos1Peak
	for hi-lo > tol {
		if err := ctx.Err(); err != nil {
			return SearchOutcome{}, fmt.Errorf("sim: required-capacity search: %w", err)
		}
		iterations.Inc()
		mid := (lo + hi) / 2
		cfg.Capacity = mid
		midRes, err := a.replayScalar(cfg)
		if err != nil {
			return SearchOutcome{}, err
		}
		if midRes.Fits(cfg.Commitment.Theta) {
			hi = mid
			hiRes = midRes
		} else {
			lo = mid
		}
	}
	return SearchOutcome{Capacity: hi, Result: hiRes, Feasible: true}, nil
}

// sameOutcome reports whether a Search outcome agrees with the
// reference bisection's. A feasible outcome must match bit for bit. An
// infeasible one's Result is decided, not measured, so it must match in
// Capacity and Feasible, and Replay at its Capacity must reproduce the
// reference Result.
func (a *Aggregate) sameOutcome(cfg Config, got, want SearchOutcome) (bool, error) {
	if want.Feasible || got.Feasible {
		return got == want, nil
	}
	if got.Capacity != want.Capacity {
		return false, nil
	}
	cfg.Capacity = got.Capacity
	res, err := a.Replay(cfg)
	return res == want.Result, err
}
