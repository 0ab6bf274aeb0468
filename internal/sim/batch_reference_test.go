package sim

import (
	"fmt"
	"math"
	"time"

	"ropus/internal/telemetry"
)

// The dense batched replay kernel — the slot-major single loop that was
// ReplayBatch until the sparse three-phase kernel replaced it — kept as
// the reference the sparse kernel is pinned to. replayBatchDense's body
// and denseReplayer.setup are the old ReplayBatch and
// BatchReplayer.setup moved here byte for byte (only the receiver types
// are renamed and the reentrancy guard, which a test-local replayer
// does not need, is dropped), so the reference is independent of
// everything the production kernel shares between lanes: its own sort,
// its own per-lane backlog queues, its own workFrac count.

// denseLane is the dense kernel's per-capacity state: the CoS2 deficit
// backlog and the deadline statistics.
type denseLane struct {
	backlog    []backlogEntry
	head       int
	deadlineOK bool
	unserved   float64
	misses     int64
}

// live reports whether the lane carries undischarged backlog.
func (l *denseLane) live() bool { return l.head < len(l.backlog) }

// denseReplayer carries the dense kernel's scratch.
type denseReplayer struct {
	caps   []float64 // lane capacities, ascending
	order  []int     // order[j] = caller index of sorted lane j
	req    []float64 // per-group requested sums (capacity-independent)
	served []float64 // per-(group,lane) served sums: served[g*K+j]
	lanes  []denseLane

	// workFrac is the pass's mean expensive-lane fraction, the number
	// the sparse kernel must reproduce exactly.
	workFrac float64
}

// setup sizes and clears the scratch for K lanes × groups θ groups and
// sorts the lanes by capacity.
func (r *denseReplayer) setup(capacities []float64, groups int) {
	k := len(capacities)
	if cap(r.caps) < k {
		r.caps = make([]float64, k)
		r.order = make([]int, k)
	}
	r.caps = r.caps[:k]
	r.order = r.order[:k]
	for i := range r.order {
		r.order[i] = i
	}
	// Ascending capacities make deficits a lane-prefix property; a
	// stable insertion sort keeps equal capacities in caller order
	// (their results are identical either way) and, unlike sort.Slice,
	// allocates nothing — K is a few dozen at most.
	for i := 1; i < k; i++ {
		idx := r.order[i]
		c := capacities[idx]
		j := i - 1
		for ; j >= 0 && capacities[r.order[j]] > c; j-- {
			r.order[j+1] = r.order[j]
		}
		r.order[j+1] = idx
	}
	for j, idx := range r.order {
		r.caps[j] = capacities[idx]
	}

	if cap(r.req) < groups {
		r.req = make([]float64, groups)
	}
	r.req = r.req[:groups]
	for i := range r.req {
		r.req[i] = 0
	}
	need := groups * k
	if cap(r.served) < need {
		r.served = make([]float64, need)
	}
	r.served = r.served[:need]
	for i := range r.served {
		r.served[i] = 0
	}

	for len(r.lanes) < k {
		r.lanes = append(r.lanes, denseLane{})
	}
	for j := 0; j < k; j++ {
		ln := &r.lanes[j]
		ln.backlog = ln.backlog[:0]
		ln.head = 0
		ln.deadlineOK = true
		ln.unserved = 0
		ln.misses = 0
	}
}

// replayBatchDense is the dense slot-major replay of every capacity in
// one loop over the trace: out[i] is the outcome at capacities[i], each
// bit-identical to the scalar reference loop (replayScalar) at that
// capacity.
func (a *Aggregate) replayBatchDense(r *denseReplayer, cfg Config, capacities []float64, out []Result) error {
	cfg.Capacity = 0 // ignored; keep Validate happy for the shared fields
	if err := cfg.Validate(); err != nil {
		return err
	}
	k := len(capacities)
	if k == 0 {
		return fmt.Errorf("sim: batch replay needs at least one capacity")
	}
	if len(out) != k {
		return fmt.Errorf("sim: batch replay: %d capacities but %d result slots", k, len(out))
	}
	for _, c := range capacities {
		if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("sim: bad capacity %v", c)
		}
	}
	corrupted := false
	if cfg.Inject != nil {
		o := cfg.Inject.Hit("sim.replay", cfg.InjectKey)
		if o.Delay > 0 {
			time.Sleep(o.Delay)
		}
		if o.Err != nil {
			return fmt.Errorf("sim: replay %q: %w", cfg.InjectKey, o.Err)
		}
		corrupted = o.Corrupt
	}

	const eps = 1e-9
	t := cfg.SlotsPerDay
	n := a.Slots()
	weeks := n / (7 * t)
	if weeks == 0 {
		weeks = 1
	}
	groups := weeks * t
	r.setup(capacities, groups)

	var (
		caps   = r.caps
		req    = r.req
		served = r.served
		lanes  = r.lanes[:k]
	)

	// backlogLive counts lanes carrying backlog; while it is zero the
	// slot takes the fast path below. maxLive is an upper bound on the
	// highest live lane index (-1 when none): every lane above it is
	// backlog-free, so the slow path can bulk-serve the clean suffix.
	// workSlots accumulates the (slot, lane) pairs that took the full
	// serve/backlog arithmetic, for the workFrac cost signal.
	backlogLive := 0
	maxLive := -1
	workSlots := int64(0)
	// Incremental θ group index: g = week*t + (i mod t), with the
	// trailing partial week folded into the last one (the scalar loop's
	// clamp).
	tod, week, weekSlot := 0, 0, 0
	lastWeek := weeks - 1

	for i := 0; i < n; i++ {
		cos1 := a.cos1[i]
		requested := a.cos2[i]
		if corrupted && i == 0 {
			requested = math.NaN()
		}
		g := week*t + tod
		req[g] += requested
		row := served[g*k : g*k+k]

		if backlogLive == 0 {
			// No lane has backlog. Lanes that cannot serve the full
			// request form a prefix of the ascending-capacity lanes;
			// everything past the prefix serves `requested` exactly.
			j := 0
			for ; j < k; j++ {
				avail := caps[j] - cos1
				if avail < 0 {
					avail = 0
				}
				if avail >= requested {
					break
				}
				s := math.Min(requested, avail)
				row[j] += s
				if deficit := requested - s; deficit > eps {
					ln := &lanes[j]
					if cfg.DeadlineSlots == 0 {
						ln.deadlineOK = false
						ln.unserved += deficit
						ln.misses++
					} else {
						ln.backlog = append(ln.backlog, backlogEntry{due: i + cfg.DeadlineSlots, amount: deficit})
						backlogLive++
						maxLive = j // ascending loop: the last append is the highest
					}
				}
			}
			workSlots += int64(j) // the deficit prefix did full arithmetic
			for ; j < k; j++ {
				row[j] += requested
			}
		} else {
			// bound is maxLive frozen at slot start: lanes above it were
			// backlog-free entering the slot and are processed after any
			// lane that could go live this slot, so once the loop passes
			// bound with a fully-served clean lane, every remaining lane
			// is clean and serves exactly `requested` too.
			bound := maxLive
			for j := 0; j < k; j++ {
				ln := &lanes[j]
				avail := caps[j] - cos1
				if avail < 0 {
					avail = 0
				}
				if avail >= requested && !ln.live() {
					// Clean lane: no backlog to drain or expire, and
					// min(requested, avail) is exactly `requested` (no
					// arithmetic), so this is the scalar result bit for
					// bit. A NaN request never takes this branch (the
					// comparison is false), keeping corruption parity.
					if j > bound {
						for ; j < k; j++ {
							row[j] += requested
						}
						break
					}
					row[j] += requested
					continue
				}
				workSlots++
				s := math.Min(requested, avail)
				avail -= s
				wasLive := ln.live()
				if wasLive {
					for ln.head < len(ln.backlog) && avail > eps {
						take := math.Min(ln.backlog[ln.head].amount, avail)
						ln.backlog[ln.head].amount -= take
						avail -= take
						if ln.backlog[ln.head].amount <= eps {
							ln.head++
						}
					}
					for ln.head < len(ln.backlog) && ln.backlog[ln.head].due <= i {
						if ln.backlog[ln.head].amount > eps {
							ln.deadlineOK = false
							ln.unserved += ln.backlog[ln.head].amount
							ln.misses++
						}
						ln.head++
					}
				}
				if deficit := requested - s; deficit > eps {
					if cfg.DeadlineSlots == 0 {
						ln.deadlineOK = false
						ln.unserved += deficit
						ln.misses++
					} else {
						ln.backlog = append(ln.backlog, backlogEntry{due: i + cfg.DeadlineSlots, amount: deficit})
					}
				}
				if nowLive := ln.live(); nowLive != wasLive {
					if nowLive {
						backlogLive++
						if j > maxLive {
							maxLive = j
						}
					} else {
						ln.backlog = ln.backlog[:0]
						ln.head = 0
						backlogLive--
					}
				}
				row[j] += s
			}
			// Tighten the stale bound so the next slot's suffix break
			// starts as low as possible.
			if backlogLive == 0 {
				maxLive = -1
			} else {
				for maxLive >= 0 && !lanes[maxLive].live() {
					maxLive--
				}
			}
		}

		if tod++; tod == t {
			tod = 0
		}
		if weekSlot++; weekSlot == 7*t {
			weekSlot = 0
			if week < lastWeek {
				week++
			}
		}
	}

	// Finalize each lane exactly like the scalar θ loop, writing results
	// back in the caller's capacity order.
	h := telemetry.OrNop(cfg.Hooks)
	thetaHist := h.Histogram("sim_probe_theta", telemetry.RatioBuckets)
	var missesTotal int64
	for j := 0; j < k; j++ {
		res := Result{
			CoS1Peak:      a.cos1Peak,
			CoS1OK:        a.cos1Peak <= caps[j]+eps,
			DeadlineOK:    lanes[j].deadlineOK,
			UnservedTotal: lanes[j].unserved,
			PeakAggregate: a.totalPeak,
		}
		res.Theta = 1
		for g := 0; g < groups; g++ {
			rq, sv := req[g], served[g*k+j]
			if math.IsNaN(rq) || math.IsNaN(sv) {
				return fmt.Errorf("sim: replay produced NaN statistics (corrupted trace slot?)")
			}
			ratio := 1.0
			if rq > eps {
				ratio = sv / rq
			}
			if ratio < res.Theta {
				res.Theta = ratio
			}
		}
		missesTotal += lanes[j].misses
		if !res.DeadlineOK {
			h.Counter("sim_deadline_violation_replays_total").Inc()
		}
		thetaHist.Observe(res.Theta)
		out[r.order[j]] = res
	}
	h.Counter("sim_replays_total").Add(int64(k))
	h.Counter("sim_replay_slots_total").Add(int64(n))
	r.workFrac = 0
	if n > 0 {
		r.workFrac = float64(workSlots) / float64(int64(n)*int64(k))
	}
	h.Counter("sim_batch_passes_total").Inc()
	h.Counter("sim_batch_lanes_total").Add(int64(k))
	h.Counter("sim_deadline_misses_total").Add(missesTotal)
	return nil
}
