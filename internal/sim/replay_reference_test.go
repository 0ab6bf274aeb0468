package sim

import (
	"errors"
	"fmt"
	"math"
	"time"

	"ropus/internal/telemetry"
)

// replayScalar is the scalar reference replay: the dense one-capacity
// loop of Figure 4 that the batched kernel replaced in production. It
// walks every slot, serving CoS1, then CoS2 on request, draining the
// backlog oldest-first within the deadline, and takes θ as the minimum
// over all (week, slot) groups. The loop is kept byte for byte (only
// its scratch became local slices), so the parity suites, searchBisect,
// the race test and the benchmarks compare the kernel against an
// implementation that shares none of its code.
func (a *Aggregate) replayScalar(cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	corrupted := false
	if cfg.Inject != nil {
		o := cfg.Inject.Hit("sim.replay", cfg.InjectKey)
		if o.Delay > 0 {
			time.Sleep(o.Delay)
		}
		if o.Err != nil {
			return Result{}, fmt.Errorf("sim: replay %q: %w", cfg.InjectKey, o.Err)
		}
		// A corruption fault poisons the first slot's CoS2 request with
		// NaN, modelling a corrupted trace slot reaching the replay; the
		// NaN propagates into θ and trips the guard below.
		corrupted = o.Corrupt
	}
	const eps = 1e-9
	res := Result{
		CoS1Peak:      a.cos1Peak,
		CoS1OK:        a.cos1Peak <= cfg.Capacity+eps,
		DeadlineOK:    true,
		PeakAggregate: a.totalPeak,
	}

	t := cfg.SlotsPerDay
	n := a.Slots()

	// Per (week, slot) sums for the θ statistic.
	weeks := n / (7 * t)
	if weeks == 0 {
		weeks = 1 // partial trace: treat everything as week 0
	}
	groups := make([]groupSums, weeks*t)

	var backlog []backlogEntry
	head := 0 // index of the first live backlog entry
	deadlineMisses := int64(0)

	for i := 0; i < n; i++ {
		avail := cfg.Capacity - a.cos1[i]
		if avail < 0 {
			avail = 0
		}
		requested := a.cos2[i]
		if corrupted && i == 0 {
			requested = math.NaN()
		}
		served := math.Min(requested, avail)
		avail -= served

		// Serve backlogged deficits oldest-first with leftover capacity.
		for head < len(backlog) && avail > eps {
			take := math.Min(backlog[head].amount, avail)
			backlog[head].amount -= take
			avail -= take
			if backlog[head].amount <= eps {
				head++
			}
		}
		// Entries due this slot that still carry demand have missed the
		// deadline.
		for head < len(backlog) && backlog[head].due <= i {
			if backlog[head].amount > eps {
				res.DeadlineOK = false
				res.UnservedTotal += backlog[head].amount
				deadlineMisses++
			}
			head++
		}
		if deficit := requested - served; deficit > eps {
			if cfg.DeadlineSlots == 0 {
				res.DeadlineOK = false
				res.UnservedTotal += deficit
				deadlineMisses++
			} else {
				backlog = append(backlog, backlogEntry{due: i + cfg.DeadlineSlots, amount: deficit})
			}
		}

		// θ bookkeeping grouped by (week, time-of-day slot).
		w := i / (7 * t)
		if w >= weeks {
			w = weeks - 1
		}
		g := w*t + i%t
		groups[g].requested += requested
		groups[g].served += served
	}
	// Deficits still pending at the end of the trace are not counted as
	// violations: their deadlines lie beyond the observation window.

	res.Theta = 1
	for _, g := range groups {
		if math.IsNaN(g.requested) || math.IsNaN(g.served) {
			// Corrupted (NaN) slots would otherwise make the θ
			// comparisons silently false; surface them as an error the
			// callers' skip-and-continue paths can record.
			return Result{}, errors.New("sim: replay produced NaN statistics (corrupted trace slot?)")
		}
		ratio := 1.0
		if g.requested > eps {
			ratio = g.served / g.requested
		}
		if ratio < res.Theta {
			res.Theta = ratio
		}
	}

	h := telemetry.OrNop(cfg.Hooks)
	h.Counter("sim_replays_total").Inc()
	h.Counter("sim_replay_slots_total").Add(int64(n))
	h.Counter("sim_deadline_misses_total").Add(deadlineMisses)
	if !res.DeadlineOK {
		h.Counter("sim_deadline_violation_replays_total").Inc()
	}
	h.Histogram("sim_probe_theta", telemetry.RatioBuckets).Observe(res.Theta)
	return res, nil
}

// groupSums accumulates the per-(week, time-of-day-slot) requested and
// served totals behind the θ statistic.
type groupSums struct{ requested, served float64 }
