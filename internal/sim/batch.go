package sim

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"ropus/internal/telemetry"
)

// Batched multi-capacity replay. A required-capacity search replays the
// same aggregate trace once per probe; the probes differ only in the
// scalar capacity being tested. BatchReplayer replays K candidate
// capacities in ONE pass and touches only the slots whose outcome can
// depend on a capacity. Two facts make that exact:
//
//   - θ's served = min(requested, avail) never depends on the backlog,
//     so a θ group none of whose slots has a deficit sums the same
//     numbers into served as into requested and its ratio is exactly 1,
//     the value the minimum starts from;
//   - the deadline queue does nothing while it is empty and the slot is
//     served in full.
//
// Lanes are kept sorted by capacity, and float subtraction is monotone,
// so "slot i has a deficit" is a prefix property over lanes and a slot
// without a deficit on the lowest lane (a cold slot) has none on any.
// A pass is three phases:
//
//  1. classify: one linear scan marks the slots that are hot for the
//     lowest lane, and the θ groups they belong to;
//  2. θ: only the hot groups are summed, over all their member slots in
//     time order, per lane;
//  3. deadlines: lane by lane in ascending capacity, the scalar
//     serve/drain/expire/enqueue sequence runs over that lane's hot
//     slots and the drain tails behind them. Hot sets are nested, so
//     lane j+1 walks the hot list lane j built.
//
// Every lane reproduces, bit for bit, what the scalar reference loop
// (replayScalar, kept in replay_reference_test.go) produces at that
// capacity: each accumulator receives exactly the floating-point
// operations the scalar loop issues, in the same order (the parity
// suites in batch_test.go and batch_sparse_test.go pin this against the
// scalar loop and the dense reference kernel across the golden corpus,
// backlog/deadline edge cases and the NaN-corruption fault path). The
// kernel is the only production replay: Replay, Diagnose and the
// capacity search all run through it.
//
// The search and the first-week screen read a probe through Fits
// alone, so they run the kernel in decided-lane mode (replayBatch with
// decide set), where a lane stops as soon as its verdict is known:
//
//   - a lane below the CoS1 peak is never summed, and phase 1 classifies
//     against the lowest lane that remains;
//   - a group's served sum is nondecreasing in capacity (every term is,
//     and rounding is monotone), so the lanes that fail θ form a prefix:
//     after each hot group phase 2 raises a low-lane index past every
//     lane whose ratio is below θ − 1e-12, the comparison Fits makes,
//     and sums only the lanes above it;
//   - phase 3 skips the lanes below that index and stops a lane at its
//     first deadline miss. The lane's own hot list is then incomplete,
//     so the next lane walks the last complete one, a superset of its
//     own.
//
// A lane that fits takes exactly the operations of the exact mode, so
// its Result is bit for bit the same; a decided lane guarantees only
// !Fits(). With a fault injector attached the mode is off.

// eps is the replay's tolerance for "served in full" and "drained".
const eps = 1e-9

// groupRatio is one θ group's access ratio Σ served / Σ requested; a
// group with no CoS2 demand counts as fully served.
func groupRatio(requested, served float64) float64 {
	if requested > eps {
		return served / requested
	}
	return 1
}

// batchLane is one capacity's deadline statistics. A decided lane was
// stopped before the end of the pass (decided-lane mode only); theta is
// then the ratio of the group that failed it, or 0 if θ was not summed.
type batchLane struct {
	deadlineOK bool
	decided    bool
	unserved   float64
	misses     int64
	theta      float64
}

// BatchReplayer carries the scratch buffers for batched replays: the
// hot-slot lists and hot-group marks, the per-group requested sums, the
// lane-major served sums, and the backlog queue the lanes take turns
// with. Buffers grow on first use and are retained across calls, so
// steady-state batched replay is allocation-free. None of them holds a
// trace or anything keyed by one.
//
// A BatchReplayer is not safe for concurrent use; this is enforced by a
// cheap always-on reentrancy guard (a single atomic compare-and-swap per
// pass, noise next to a trace traversal): a concurrent or re-entrant
// ReplayBatch panics instead of corrupting lanes silently.
type BatchReplayer struct {
	// busy is the reentrancy guard: 1 while a pass is running.
	busy atomic.Int32

	caps  []float64 // lane capacities, ascending
	order []int     // order[j] = caller index of sorted lane j
	lanes []batchLane

	// hotGroups lists the last pass's hot groups in ascending order, and
	// req and served hold their requested sums and per-(group, lane)
	// served sums (served[g*K+j], lanes in ascending capacity). They are
	// valid for those groups only, and only until the next pass; every
	// other group's ratio is exactly 1. Diagnose reads them after its
	// one-lane pass.
	hotGroups []int
	req       []float64
	served    []float64

	hot      []int  // time-ordered hot slots of the lane being walked
	hotNext  []int  // the next lane's hot slots, built during the walk
	hotGroup []bool // hotGroup[g]: group g contains a hot slot
	backlog  []backlogEntry

	// workFrac is the last pass's mean expensive-lane fraction: the
	// share of (slot, lane) pairs that are hot or enter the slot with a
	// live backlog, i.e. that took the full serve/backlog arithmetic.
	// Only lanes that ran to the end count (a decided lane's partial
	// walk would look cheap); a pass that completes none leaves it as
	// it was. It is the cost signal the K-ary search adapts its
	// speculation depth to, and never affects replay results.
	workFrac float64
	// hintDepth is cross-search scratch for the K-ary search: the
	// speculation depth the last search on this (pooled) replayer
	// settled on. Zero means "no history". Results are independent of
	// it; only the grouping of probes into passes changes.
	hintDepth int
}

// NewBatchReplayer returns an empty BatchReplayer; buffers grow on
// first use.
func NewBatchReplayer() *BatchReplayer { return &BatchReplayer{} }

// batchPool recycles BatchReplayers for Replay, Diagnose and the K-ary
// capacity search.
var batchPool = sync.Pool{New: func() any { return NewBatchReplayer() }}

// acquire takes the reentrancy guard.
func (r *BatchReplayer) acquire() {
	if !r.busy.CompareAndSwap(0, 1) {
		panic("sim: BatchReplayer used concurrently (it is not safe for concurrent use; use one per goroutine)")
	}
}

// release returns the guard.
func (r *BatchReplayer) release() { r.busy.Store(0) }

// setup sorts the lanes by capacity and sizes the scratch for K lanes ×
// groups θ groups over an n-slot trace. The group sums are not cleared
// here: phase 2 zeroes the hot groups' rows as it reaches them and
// nothing reads a cold group's.
func (r *BatchReplayer) setup(capacities []float64, groups, n int) {
	k := len(capacities)
	if cap(r.caps) < k {
		r.caps = make([]float64, k)
		r.order = make([]int, k)
		r.lanes = make([]batchLane, k)
	}
	r.caps = r.caps[:k]
	r.order = r.order[:k]
	r.lanes = r.lanes[:k]
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
	for j := range r.lanes {
		r.lanes[j] = batchLane{deadlineOK: true}
	}

	if cap(r.req) < groups {
		r.req = make([]float64, groups)
		r.hotGroup = make([]bool, groups)
		r.hotGroups = make([]int, 0, groups)
	}
	r.req = r.req[:groups]
	r.hotGroup = r.hotGroup[:groups]
	clear(r.hotGroup)
	r.hotGroups = r.hotGroups[:0]
	if need := groups * k; cap(r.served) < need {
		r.served = make([]float64, need)
	} else {
		r.served = r.served[:need]
	}
	if cap(r.hot) < n {
		r.hot = make([]int, n)
		r.hotNext = make([]int, n)
	}
}

// ReplayBatch replays the aggregate against every capacity in one
// three-phase pass (classify the hot slots, sum θ over the hot groups,
// walk each lane's deadline queue over its hot slots) and writes the
// per-capacity results to out (out[i] is the outcome at capacities[i]);
// each result is bit-identical to the scalar reference loop
// (replayScalar) at that capacity.
// cfg.Capacity is ignored — the lane capacities replace it. A
// corruption fault injected at the "sim.replay" point poisons the
// shared slot-0 request exactly as it does for a scalar replay (slot 0
// is hot by construction), so the whole batch surfaces the same
// NaN-statistics error.
func (a *Aggregate) ReplayBatch(r *BatchReplayer, cfg Config, capacities []float64, out []Result) error {
	return a.replayBatch(r, cfg, capacities, out, false)
}

// replayBatch is ReplayBatch, in decided-lane mode when decide is set
// and cfg has no fault injector: each lane that fits is still
// bit-identical to ReplayBatch's, but a lane that does not fit stops as
// soon as that is known, and its Result guarantees only !Fits().
func (a *Aggregate) replayBatch(r *BatchReplayer, cfg Config, capacities []float64, out []Result, decide bool) error {
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
		// A trace pass is not cancellable, so neither is its delay.
		o := cfg.Inject.Hit("sim.replay", cfg.InjectKey)
		if err := o.Wait(context.Background()); err != nil {
			return fmt.Errorf("sim: replay %q: %w", cfg.InjectKey, err)
		}
		corrupted = o.Corrupt
		decide = false
	}

	r.acquire()
	defer r.release()

	t := cfg.SlotsPerDay
	n := a.Slots()
	corrupted = corrupted && n > 0
	weeks := n / (7 * t)
	if weeks == 0 {
		weeks = 1 // partial trace: treat everything as week 0
	}
	lastWeek := weeks - 1
	groups := weeks * t
	r.setup(capacities, groups, n)

	var (
		caps     = r.caps
		req      = r.req
		served   = r.served
		lanes    = r.lanes
		hotGroup = r.hotGroup
		cos1     = a.cos1[:n]
		cos2     = a.cos2[:n]
		thetaMin = cfg.Commitment.Theta - 1e-12 // Fits' θ threshold
	)

	// low is the lowest lane still undecided: the lanes below it do not
	// fit and are not replayed further. Outside decided-lane mode it
	// stays 0. Lanes that fail CoS1 are decided before anything is summed.
	low := 0
	if decide {
		for low < k && !(a.cos1Peak <= caps[low]+eps) {
			lanes[low].decided = true
			low++
		}
	}

	// Phase 1, classify. A slot is hot iff the lowest undecided lane (low;
	// with none left there is nothing to classify) cannot serve its
	// request in full: !(max(0, c0−cos1) >= cos2), the kernel's own
	// predicate. The scan tests it as "c0−cos1 >= cos2 is cold" first —
	// the clamp can only raise avail — and consults the clamp only on
	// the slots that fail, so a cold slot costs one subtraction and one
	// compare, and a NaN request fails both tests and is hot. Walking day
	// by day keeps the θ group index at week·t + (i − base): g = i + gOff,
	// the trailing partial week folded into the last one (the scalar
	// loop's clamp).
	hot := r.hot[:n]
	m := 0
	if corrupted {
		hot[0], hotGroup[0], m = 0, true, 1
	}
	var c0 float64
	if low < k {
		c0 = caps[low]
	}
	for base, day, week := 0, 0, 0; low < k && base < n; base += t {
		first := base
		if corrupted && base == 0 {
			first = 1
		}
		end := min(base+t, n)
		day1, day2 := cos1[first:end], cos2[first:end]
		m0 := m
		for x, c1 := range day1 {
			requested := day2[x]
			if c0-c1 >= requested || (c0 < c1 && 0 >= requested) {
				continue
			}
			hot[m] = first + x
			m++
		}
		gOff := week*t - base
		for _, i := range hot[m0:m] {
			hotGroup[i+gOff] = true
		}
		if day++; day == 7 {
			day = 0
			if week < lastWeek {
				week++
			}
		}
	}
	hot = hot[:m]

	// Phase 2, θ. Every member of a hot group, hot or not, adds to the
	// group's sums in time order with exactly the scalar operations:
	// lanes in the deficit prefix add min(requested, avail), the rest
	// add requested. In decided-lane mode a finished group then decides
	// every lane from low up whose ratio fails θ.
	visited := int64(0)
	hotGroups := r.hotGroups
phase2:
	for week, g := 0, 0; week < weeks; week++ {
		end := (week + 1) * 7 * t
		if week == lastWeek {
			end = n
		}
		for x := 0; x < t; x, g = x+1, g+1 {
			if !hotGroup[g] {
				continue
			}
			hotGroups = append(hotGroups, g)
			row := served[g*k : g*k+k]
			clear(row[low:])
			rq := 0.0
			for i := week*7*t + x; i < end; i += t {
				visited++
				c1 := cos1[i]
				requested := cos2[i]
				if corrupted && i == 0 {
					requested = math.NaN()
				}
				rq += requested
				j := low
				for ; j < k; j++ {
					avail := caps[j] - c1
					if avail < 0 {
						avail = 0
					}
					if avail >= requested {
						break
					}
					row[j] += min(requested, avail)
				}
				for ; j < k; j++ {
					row[j] += requested
				}
			}
			req[g] = rq
			if decide {
				for low < k {
					ratio := groupRatio(rq, row[low])
					if !(ratio < thetaMin) {
						break
					}
					lanes[low].decided, lanes[low].theta = true, ratio
					low++
				}
				if low == k {
					break phase2
				}
			}
		}
	}
	r.hotGroups = hotGroups

	// Phase 3, deadlines. Lane j walks the hot list of lane j−1 (a
	// superset of its own) and builds its own for lane j+1. Between
	// listed slots its backlog is empty and every slot is served in
	// full, so nothing happens there; at a hot slot it runs the scalar
	// sequence and keeps stepping slot by slot until the backlog has
	// drained. work counts the lane's scalar-sequence runs — the (slot,
	// lane) pairs that are hot or enter the slot with a live backlog —
	// and workSlots sums it over the lanes that ran to the end. In
	// decided-lane mode a lane stops at its first miss; its list is
	// then incomplete, so the next lane walks the one this lane did.
	workSlots, done := int64(0), 0
	next := r.hotNext[:n]
	backlog := r.backlog[:0]
lanes:
	for j := low; j < k; j++ {
		ln := &lanes[j]
		c := caps[j]
		work := int64(0)
		m = 0
		for p := 0; p < len(hot); {
			i := hot[p]
			p++
			visited++
			avail := c - cos1[i]
			if avail < 0 {
				avail = 0
			}
			requested := cos2[i]
			if corrupted && i == 0 {
				requested = math.NaN()
			}
			if avail >= requested {
				continue
			}
			next[m] = i
			m++
			work++
			deficit := requested - min(requested, avail)
			if !(deficit > eps) {
				continue
			}
			if cfg.DeadlineSlots == 0 {
				ln.deadlineOK = false
				ln.unserved += deficit
				ln.misses++
				if decide {
					ln.decided = true
					continue lanes
				}
				continue
			}
			// The deficit opens a backlog: step through the slots behind
			// it until it has drained or expired.
			backlog = append(backlog[:0], backlogEntry{due: i + cfg.DeadlineSlots, amount: deficit})
			head := 0
			for i++; i < n && head < len(backlog); i++ {
				visited++
				work++
				avail := c - cos1[i]
				if avail < 0 {
					avail = 0
				}
				requested := cos2[i]
				if !(avail >= requested) {
					next[m] = i
					m++
				}
				s := min(requested, avail)
				avail -= s
				for head < len(backlog) && avail > eps {
					take := min(backlog[head].amount, avail)
					backlog[head].amount -= take
					avail -= take
					if backlog[head].amount <= eps {
						head++
					}
				}
				for head < len(backlog) && backlog[head].due <= i {
					if backlog[head].amount > eps {
						ln.deadlineOK = false
						ln.unserved += backlog[head].amount
						ln.misses++
						if decide {
							ln.decided = true
							continue lanes
						}
					}
					head++
				}
				if deficit := requested - s; deficit > eps {
					backlog = append(backlog, backlogEntry{due: i + cfg.DeadlineSlots, amount: deficit})
				}
			}
			// Listed slots the tail already stepped through are done.
			for p < len(hot) && hot[p] < i {
				p++
			}
		}
		workSlots += work
		done++
		hot, next = next[:m], hot[:n]
	}
	r.backlog = backlog[:0]

	// Finalize each lane exactly like the scalar θ loop, writing results
	// back in the caller's capacity order. Cold groups are skipped: their
	// served and requested sums are the same fold of the same finite
	// numbers, so their ratio is exactly 1 and they hold no NaN. A lane
	// decided in phase 2 or before has no complete sums: its Theta is
	// the one it was decided on, and sim_probe_theta does not observe it.
	h := telemetry.OrNop(cfg.Hooks)
	thetaHist := h.Histogram("sim_probe_theta", telemetry.RatioBuckets)
	var missesTotal, stopped int64
	for j := 0; j < k; j++ {
		res := Result{
			CoS1Peak:      a.cos1Peak,
			CoS1OK:        a.cos1Peak <= caps[j]+eps,
			DeadlineOK:    lanes[j].deadlineOK,
			UnservedTotal: lanes[j].unserved,
			PeakAggregate: a.totalPeak,
		}
		if lanes[j].decided {
			stopped++
		}
		if j < low {
			res.Theta = lanes[j].theta
			out[r.order[j]] = res
			continue
		}
		res.Theta = 1
		for _, g := range hotGroups {
			rq, sv := req[g], served[g*k+j]
			if math.IsNaN(rq) || math.IsNaN(sv) {
				return fmt.Errorf("sim: replay produced NaN statistics (corrupted trace slot?)")
			}
			if ratio := groupRatio(rq, sv); ratio < res.Theta {
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
	h.Counter("sim_replay_slots_visited_total").Add(visited)
	if done > 0 {
		r.workFrac = 0
		if n > 0 {
			r.workFrac = float64(workSlots) / float64(int64(n)*int64(done))
		}
	}
	h.Counter("sim_batch_passes_total").Inc()
	h.Counter("sim_batch_lanes_total").Add(int64(k))
	h.Counter("sim_deadline_misses_total").Add(missesTotal)
	if decide {
		h.Counter("sim_lanes_stopped_total").Add(stopped)
	}
	return nil
}
