// Package sim implements the workload placement service's simulator
// component (paper section VI-A, Figure 4).
//
// The simulator emulates the assignment of several application workloads
// to a single resource. It replays the per-slot allocation-requirement
// traces produced by the portfolio translation, schedules capacity in
// workload-manager order (CoS1 first, remaining capacity to CoS2, then
// to backlogged CoS2 demand), measures the resource access probability
//
//	θ = min over (week, slot) of  Σ_days min(A, L) / Σ_days A
//
// and checks that demands not satisfied on request are satisfied within
// the commitment's deadline of s slots. A binary search over capacity
// finds the required capacity: the smallest capacity satisfying the CoS
// commitments.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"ropus/internal/faultinject"
	"ropus/internal/qos"
	"ropus/internal/telemetry"
)

// Workload is one application's translated allocation requirements on a
// resource: per-slot CPU allocations for each class of service. Both
// slices must have the same length across all workloads replayed
// together.
type Workload struct {
	AppID string
	CoS1  []float64
	CoS2  []float64
}

// Validate checks the workload's structural invariants.
func (w Workload) Validate() error {
	if w.AppID == "" {
		return errors.New("sim: workload needs an AppID")
	}
	if len(w.CoS1) == 0 || len(w.CoS1) != len(w.CoS2) {
		return fmt.Errorf("sim: workload %q needs equal-length, non-empty CoS traces (got %d/%d)",
			w.AppID, len(w.CoS1), len(w.CoS2))
	}
	for i := range w.CoS1 {
		if w.CoS1[i] < 0 || w.CoS2[i] < 0 ||
			math.IsNaN(w.CoS1[i]) || math.IsNaN(w.CoS2[i]) ||
			math.IsInf(w.CoS1[i], 0) || math.IsInf(w.CoS2[i], 0) {
			return fmt.Errorf("sim: workload %q has an invalid allocation at slot %d", w.AppID, i)
		}
	}
	return nil
}

// Config parameterizes a replay.
type Config struct {
	// Capacity is the resource's CPU capacity L.
	Capacity float64
	// Commitment is the pool's CoS2 access commitment (θ and deadline).
	Commitment qos.PoolCommitment
	// SlotsPerDay is T, the number of measurement slots per day; the
	// θ statistic is grouped by (week, time-of-day slot).
	SlotsPerDay int
	// DeadlineSlots is the commitment deadline s expressed in slots.
	DeadlineSlots int
	// Hooks receives replay and search telemetry; nil disables it.
	Hooks telemetry.Hooks
	// Inject is the test-only fault injector consulted at the
	// "sim.replay" and "sim.required_capacity" points; nil (the
	// production default) injects nothing. Attaching one also turns
	// off RebuildScreened's first-week screen, so the points are hit
	// in the same sequence as without it.
	Inject faultinject.Injector
	// InjectKey is the occurrence key passed to Inject (for example the
	// server ID the replay is evaluating).
	InjectKey string
}

// Validate checks the replay configuration.
func (c Config) Validate() error {
	if c.Capacity < 0 || math.IsNaN(c.Capacity) || math.IsInf(c.Capacity, 0) {
		return fmt.Errorf("sim: bad capacity %v", c.Capacity)
	}
	if c.SlotsPerDay <= 0 {
		return fmt.Errorf("sim: SlotsPerDay %d <= 0", c.SlotsPerDay)
	}
	if c.DeadlineSlots < 0 {
		return fmt.Errorf("sim: DeadlineSlots %d < 0", c.DeadlineSlots)
	}
	return c.Commitment.Validate()
}

// Result reports the outcome of replaying a set of workloads against a
// capacity.
type Result struct {
	// CoS1Peak is the peak aggregate CoS1 allocation. CoS1 is
	// guaranteed, so the workloads cannot fit unless CoS1Peak <=
	// capacity.
	CoS1Peak float64
	// CoS1OK reports whether the CoS1 guarantee holds.
	CoS1OK bool
	// Theta is the measured resource access probability for CoS2.
	Theta float64
	// DeadlineOK reports whether every CoS2 deficit was served within
	// the deadline.
	DeadlineOK bool
	// UnservedTotal is the total CoS2 demand that missed its deadline,
	// in CPU-slots.
	UnservedTotal float64
	// PeakAggregate is the peak of the total (CoS1+CoS2) allocation
	// requirement, an upper bound on useful capacity.
	PeakAggregate float64
}

// Fits reports whether the replay satisfied the commitment θ.
func (r Result) Fits(required float64) bool {
	return r.CoS1OK && r.DeadlineOK && r.Theta >= required-1e-12
}

// Aggregate holds the per-slot aggregate CoS1/CoS2 allocations of a
// workload group; computing it once amortizes replays across a binary
// search over capacity. Construct with NewAggregate.
type Aggregate struct {
	cos1, cos2 []float64
	cos1Peak   float64
	totalPeak  float64
}

// NewAggregate precomputes per-slot aggregate allocations. All
// workloads must be valid and aligned.
func NewAggregate(workloads []Workload) (*Aggregate, error) {
	for _, w := range workloads {
		if err := w.Validate(); err != nil {
			return nil, err
		}
	}
	agg := new(Aggregate)
	if err := agg.Rebuild(workloads); err != nil {
		return nil, err
	}
	return agg, nil
}

// Rebuild re-sums the aggregate in place from workloads whose samples
// the caller has already validated (Workload.Validate), reusing the
// aggregate's slot buffers: a caller that keeps one Aggregate pays one
// sweep of them per three workloads (see sum) and no allocation, instead
// of two fresh slices and a re-validation. The alignment check stays.
// Sums are the left fold from zero in workload order NewAggregate always
// took, so the two agree bit for bit. After an error the contents are
// unspecified.
func (a *Aggregate) Rebuild(workloads []Workload) error {
	if err := a.resize(workloads); err != nil {
		return err
	}
	a.cos1Peak, a.totalPeak = a.sum(workloads, 0, len(a.cos1))
	return nil
}

// RebuildScreened is Rebuild for a group about to be searched against
// limit (Search's argument). It sums the first week before the rest
// and reports rejected, leaving the rest unsummed, when that week alone
// proves the search would end infeasible:
//
//   - the week's CoS1 peak is above limit, so the trace's is too; or
//   - limit is below the week's total peak, so below the trace's and
//     Search replays limit alone first, and the week replayed at limit
//     does not fit. The week's θ groups are the trace's own (the first
//     week is never the last, which absorbs a ragged tail), so the
//     trace's θ is at most the week's; and a deadline miss inside the
//     week is one the full replay, which is causal, makes as well.
//
// A rejected search counts in sim_searches_total and
// sim_search_infeasible_total, as Search's own would; the aggregate is
// then the first week's alone. Otherwise the aggregate is bit for bit
// Rebuild's: each slot's fold is the same and the peaks are the larger
// of the two halves'. Traces shorter than two whole weeks, and replays
// with a fault injector, whose hit sequence must not change, are summed
// by Rebuild unscreened.
func (a *Aggregate) RebuildScreened(workloads []Workload, cfg Config, limit float64) (rejected bool, err error) {
	cfg.Capacity = 0 // limit stands in for it; Validate checks the rest
	week := 7 * cfg.SlotsPerDay
	if len(workloads) == 0 || cfg.Inject != nil || cfg.SlotsPerDay <= 0 ||
		len(workloads[0].CoS1) < 2*week || !(limit > 0) || cfg.Validate() != nil {
		return false, a.Rebuild(workloads)
	}
	if err := a.resize(workloads); err != nil {
		return false, err
	}
	n := len(a.cos1)
	a.cos1, a.cos2 = a.cos1[:week], a.cos2[:week]
	a.cos1Peak, a.totalPeak = a.sum(workloads, 0, week)
	if a.cos1Peak > limit {
		countRejected(cfg)
		return true, nil
	}
	if limit < a.totalPeak {
		br := batchPool.Get().(*BatchReplayer)
		res, err := a.replayOne(br, cfg, limit, true)
		batchPool.Put(br)
		if err != nil {
			return false, err
		}
		if !res.Fits(cfg.Commitment.Theta) {
			countRejected(cfg)
			return true, nil
		}
	}
	a.cos1, a.cos2 = a.cos1[:n], a.cos2[:n]
	cos1Peak, totalPeak := a.sum(workloads, week, n)
	a.cos1Peak, a.totalPeak = max(a.cos1Peak, cos1Peak), max(a.totalPeak, totalPeak)
	return false, nil
}

// countRejected counts a search the first-week screen decided.
func countRejected(cfg Config) {
	h := telemetry.OrNop(cfg.Hooks)
	h.Counter("sim_searches_total").Inc()
	h.Counter("sim_search_infeasible_total").Inc()
}

// resize checks that the workloads are non-empty and aligned, and sizes
// the slot buffers to their length.
func (a *Aggregate) resize(workloads []Workload) error {
	if len(workloads) == 0 {
		return errors.New("sim: no workloads")
	}
	n := len(workloads[0].CoS1)
	for _, w := range workloads {
		if len(w.CoS1) != n || len(w.CoS2) != n {
			return fmt.Errorf("sim: workload %q has %d/%d slots, want %d", w.AppID, len(w.CoS1), len(w.CoS2), n)
		}
	}
	if cap(a.cos1) < n || cap(a.cos2) < n {
		a.cos1, a.cos2 = make([]float64, n), make([]float64, n)
	}
	a.cos1, a.cos2 = a.cos1[:n], a.cos2[:n]
	return nil
}

// sum folds slots [lo, hi) of the workloads into the buffers and returns
// that range's CoS1 and total peaks. Each slot is the left fold from +0
// in workload order, ((0 + w₀) + w₁) + …, so a negative-zero sample sums
// to +0. The fold runs slot-major, up to three workloads per sweep of the
// buffers: the first sweep writes without reading them, later ones read,
// add and write, and the last also takes the peaks, in slot order. A
// k-workload group costs ⌈k/3⌉ sweeps, with no clear and no peak pass.
func (a *Aggregate) sum(workloads []Workload, lo, hi int) (cos1Peak, totalPeak float64) {
	cos1, cos2 := a.cos1[lo:hi], a.cos2[lo:hi]
	first := true
	for ; len(workloads) > 3; workloads, first = workloads[3:], false {
		x, y, z := workloads[0], workloads[1], workloads[2]
		fold3(cos1, x.CoS1[lo:hi], y.CoS1[lo:hi], z.CoS1[lo:hi], first)
		fold3(cos2, x.CoS2[lo:hi], y.CoS2[lo:hi], z.CoS2[lo:hi], first)
	}
	return foldPeaks(cos1, cos2, workloads, lo, first)
}

// fold3 is one sweep that is not the last: dst[i] = ((s + x[i]) + y[i]) +
// z[i], where s is dst[i], or +0 on the first sweep.
func fold3(dst, x, y, z []float64, first bool) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	if first {
		for i := range dst {
			dst[i] = ((0 + x[i]) + y[i]) + z[i]
		}
		return
	}
	for i := range dst {
		dst[i] = ((dst[i] + x[i]) + y[i]) + z[i]
	}
}

// foldPeaks is the last sweep: it folds the one to three workloads left,
// as fold3 does, and takes the peaks of the finished sums.
func foldPeaks(cos1, cos2 []float64, workloads []Workload, lo int, first bool) (cos1Peak, totalPeak float64) {
	n := len(cos1)
	cos2 = cos2[:n]
	x1, x2 := workloads[0].CoS1[lo:][:n], workloads[0].CoS2[lo:][:n]
	switch len(workloads) {
	case 1:
		for i := range cos1 {
			var c1, c2 float64
			if !first {
				c1, c2 = cos1[i], cos2[i]
			}
			c1, c2 = c1+x1[i], c2+x2[i]
			cos1[i], cos2[i] = c1, c2
			if c1 > cos1Peak {
				cos1Peak = c1
			}
			if total := c1 + c2; total > totalPeak {
				totalPeak = total
			}
		}
	case 2:
		y1, y2 := workloads[1].CoS1[lo:][:n], workloads[1].CoS2[lo:][:n]
		for i := range cos1 {
			var c1, c2 float64
			if !first {
				c1, c2 = cos1[i], cos2[i]
			}
			c1, c2 = (c1+x1[i])+y1[i], (c2+x2[i])+y2[i]
			cos1[i], cos2[i] = c1, c2
			if c1 > cos1Peak {
				cos1Peak = c1
			}
			if total := c1 + c2; total > totalPeak {
				totalPeak = total
			}
		}
	default:
		y1, y2 := workloads[1].CoS1[lo:][:n], workloads[1].CoS2[lo:][:n]
		z1, z2 := workloads[2].CoS1[lo:][:n], workloads[2].CoS2[lo:][:n]
		for i := range cos1 {
			var c1, c2 float64
			if !first {
				c1, c2 = cos1[i], cos2[i]
			}
			c1, c2 = ((c1+x1[i])+y1[i])+z1[i], ((c2+x2[i])+y2[i])+z2[i]
			cos1[i], cos2[i] = c1, c2
			if c1 > cos1Peak {
				cos1Peak = c1
			}
			if total := c1 + c2; total > totalPeak {
				totalPeak = total
			}
		}
	}
	return cos1Peak, totalPeak
}

// Slots returns the number of replay slots.
func (a *Aggregate) Slots() int { return len(a.cos1) }

// CoS1Peak returns the peak aggregate CoS1 allocation.
func (a *Aggregate) CoS1Peak() float64 { return a.cos1Peak }

// TotalPeak returns the peak aggregate CoS1+CoS2 allocation.
func (a *Aggregate) TotalPeak() float64 { return a.totalPeak }

// backlogEntry is CoS2 demand that was not satisfied on request and must
// be served by slot due.
type backlogEntry struct {
	due    int
	amount float64
}

// Replay replays the aggregate against cfg.Capacity and computes the
// resource access CoS statistics (Figure 4's simulator loop). It is one
// lane of the batched kernel (ReplayBatch) on a pooled BatchReplayer, so
// a warm replay allocates nothing and sums θ over the hot groups only.
func (a *Aggregate) Replay(cfg Config) (Result, error) {
	br := batchPool.Get().(*BatchReplayer)
	defer batchPool.Put(br)
	return a.replayOne(br, cfg, cfg.Capacity, false)
}

// SearchOutcome is the detailed result of a required-capacity search.
type SearchOutcome struct {
	// Capacity is the capacity the search settled on.
	Capacity float64
	// Result is the replay outcome at Capacity when Feasible. An
	// infeasible outcome's Result is decided, not measured: it only
	// guarantees !Fits(), and a caller that needs the statistics
	// replays at Capacity (the limit) for them.
	Result Result
	// Feasible reports whether the commitments are satisfied within the
	// search limit.
	Feasible bool
}

// RequiredCapacity finds the smallest capacity (within tol CPUs) that
// satisfies the CoS commitments, searching [CoS1Peak, limit] by
// bisection as in Figure 4. It returns the capacity and the replay
// result at that capacity. If even the limit does not satisfy the
// commitments, ok is false, capacity is the limit and the result is
// decided, not measured (see SearchOutcome.Result): Replay at the limit
// gives its statistics. Cancelling ctx aborts the search between
// bisection iterations with a wrapped ctx error.
func (a *Aggregate) RequiredCapacity(ctx context.Context, cfg Config, limit, tol float64) (capacity float64, res Result, ok bool, err error) {
	out, err := a.Search(ctx, cfg, limit, tol)
	return out.Capacity, out.Result, out.Feasible, err
}

// Search is RequiredCapacity with the full outcome detail.
//
// The search runs in batched K-ary form: instead of replaying one
// bisection midpoint per pass over the trace, it evaluates the next
// several levels of the bisection tree in a single BatchReplayer pass
// and then walks the tree with the probe outcomes in hand, cutting
// trace passes by ~5× while returning the bit-identical capacity and
// Result a plain bisection would (the probe capacities and the
// decisions taken at them are exactly the bisection's own). The order
// of the first probes depends on limit < TotalPeak alone: a clamped
// search replays its ceiling (the limit) by itself and returns
// "infeasible" at once if that does not fit, speculating midpoints only
// afterwards; an unclamped search, whose ceiling is TotalPeak and
// nearly free to replay, carries it as one more lane of the first tree
// pass. The "sim.replay" injection point fires once per trace pass.
//
// Only a probe's Fits verdict steers the walk, so every pass runs the
// kernel in decided-lane mode (see replayBatch): a lane that does not
// fit stops at its first θ or deadline failure. A feasible outcome's
// Result is therefore still the exact replay at Capacity, but an
// infeasible one's is decided: Capacity is the limit, and Replay at it
// gives the statistics. With a fault injector attached every lane is
// replayed in full, as by ReplayBatch.
func (a *Aggregate) Search(ctx context.Context, cfg Config, limit, tol float64) (SearchOutcome, error) {
	if tol <= 0 {
		return SearchOutcome{}, fmt.Errorf("sim: tolerance %v <= 0", tol)
	}
	if limit <= 0 {
		return SearchOutcome{}, fmt.Errorf("sim: capacity limit %v <= 0", limit)
	}
	if err := ctx.Err(); err != nil {
		return SearchOutcome{}, fmt.Errorf("sim: required-capacity search: %w", err)
	}
	if cfg.Inject != nil {
		if err := cfg.Inject.Hit("sim.required_capacity", cfg.InjectKey).Wait(ctx); err != nil {
			return SearchOutcome{}, fmt.Errorf("sim: required-capacity search %q: %w", cfg.InjectKey, err)
		}
	}
	return a.searchKary(ctx, cfg, limit, tol)
}

// searchDepth is how many bisection levels one batched pass evaluates:
// a pass carries up to 2^searchDepth-1 speculative midpoint lanes (all
// tree nodes the next searchDepth bisection steps could visit). Depth 5
// (≤31 lanes) is the ceiling the adaptive controller below can reach on
// backlog-light traces, where a marginal lane costs ~0.1x of a scalar
// replay and the default 0.05-CPU tolerance's 8-10 bisection steps fit
// in 2 passes instead of 9-11 traversals.
const searchDepth = 5

// bisectSteps counts the halvings a bisection needs to shrink span to
// the tolerance — the number of steps left in the search.
func bisectSteps(span, tol float64) int {
	steps := 0
	for span > tol && steps < 64 {
		span /= 2
		steps++
	}
	return steps
}

// depthForWorkFrac picks the next pass's speculation depth from the
// expensive-lane fraction the previous batched pass observed. Lanes
// whose capacity sits below the demand crossing take the full
// serve/backlog arithmetic slot after slot and cost about as much as a
// scalar replay each, so speculating a deep tree (half of whose lanes
// sit below the crossing) only pays when such work is rare; otherwise
// the search degrades toward plain bisection. The signal is a
// deterministic function of the trace, so the probe grouping — and
// therefore the telemetry — is reproducible, and the probe *sequence*
// is depth-independent either way.
func depthForWorkFrac(wf float64) int {
	switch {
	case wf < 0.10:
		return searchDepth
	case wf < 0.30:
		return 2
	default:
		return 1
	}
}

// bisectTree is the speculative probe ladder for one batched pass: the
// heap-ordered midpoints of the next searchDepth levels of the
// bisection over (lo, hi). Node j's children are 2j+1 (lower half) and
// 2j+2 (upper half); nodes whose interval has already shrunk to the
// tolerance are dead (lane -1) and never evaluated.
type bisectTree struct {
	mids  []float64 // heap-ordered midpoints; NaN for dead nodes
	lanes []int     // node -> lane index in the batch, -1 for dead
	caps  []float64 // live-lane capacities, in lane order
	out   []Result  // per-lane results, in lane order
	spans []searchSpan
}

// searchSpan is one node's bisection interval during tree construction.
type searchSpan struct{ lo, hi float64 }

// treePool recycles bisectTree scratch across searches.
var treePool = sync.Pool{New: func() any { return new(bisectTree) }}

// build fills the tree with the next `depth` levels of the bisection
// over the interval (lo, hi). Midpoints are the exact (lo+hi)/2 floats
// the scalar bisection would compute, level by level, so walking the
// tree reproduces the bisection bit for bit at any depth.
func (bt *bisectTree) build(lo, hi, tol float64, depth int) {
	if depth < 1 {
		depth = 1
	} else if depth > searchDepth {
		depth = searchDepth
	}
	n := 1<<depth - 1
	maxN := 1<<searchDepth - 1
	if cap(bt.mids) < maxN {
		bt.mids = make([]float64, 0, maxN)
		bt.lanes = make([]int, 0, maxN)
		bt.caps = make([]float64, 0, maxN+1) // +1: an unclamped first pass rides the hi probe along
		bt.out = make([]Result, maxN+1)
		bt.spans = make([]searchSpan, 0, maxN)
	}
	bt.mids = bt.mids[:n]
	bt.lanes = bt.lanes[:n]
	bt.caps = bt.caps[:0]
	spans := append(bt.spans[:0], searchSpan{lo, hi})
	for j := 0; j < n; j++ {
		s := spans[j]
		if math.IsNaN(s.lo) || s.hi-s.lo <= tol {
			bt.mids[j] = math.NaN()
			bt.lanes[j] = -1
			if 2*j+2 < n {
				spans = append(spans, searchSpan{math.NaN(), math.NaN()}, searchSpan{math.NaN(), math.NaN()})
			}
			continue
		}
		mid := (s.lo + s.hi) / 2
		bt.mids[j] = mid
		bt.lanes[j] = len(bt.caps)
		bt.caps = append(bt.caps, mid)
		if 2*j+2 < n {
			spans = append(spans, searchSpan{s.lo, mid}, searchSpan{mid, s.hi})
		}
	}
	bt.spans = spans[:0]
}

// searchKary runs the bisection over batched passes: each pass
// evaluates the next ≤ searchDepth levels of midpoints in one trace
// traversal, then the walk descends the tree with every probe outcome
// already known. The capacities the walk consults, the Fits decisions
// taken at them, and the returned outcome are identical to the scalar
// bisection's (the reference the parity suites keep in a test file);
// a clamped search decides its ceiling before the first tree.
func (a *Aggregate) searchKary(ctx context.Context, cfg Config, limit, tol float64) (SearchOutcome, error) {
	br := batchPool.Get().(*BatchReplayer)
	defer batchPool.Put(br)
	return a.searchKaryWith(ctx, cfg, limit, tol, br)
}

// searchKaryWith is searchKary against a caller-supplied replayer, the
// seam that lets tests control the depth-hint warm-up deterministically
// instead of depending on what the pool hands back.
func (a *Aggregate) searchKaryWith(ctx context.Context, cfg Config, limit, tol float64, br *BatchReplayer) (SearchOutcome, error) {
	h := telemetry.OrNop(cfg.Hooks)
	h.Counter("sim_searches_total").Inc()
	iterations := h.Counter("sim_search_iterations_total")

	// The workloads cannot fit at any capacity <= limit if the
	// guaranteed class alone exceeds it.
	if a.cos1Peak > limit {
		res, err := a.replayOne(br, cfg, limit, true)
		if err != nil {
			return SearchOutcome{}, err
		}
		h.Counter("sim_search_infeasible_total").Inc()
		return SearchOutcome{Capacity: limit, Result: res}, nil
	}

	unclamped := limit >= a.totalPeak
	hi := math.Min(limit, a.totalPeak)
	if hi <= 0 {
		hi = tol // all-zero workloads: any positive capacity fits
	}
	lo := a.cos1Peak

	// probes counts the capacities a scalar bisection would have
	// replayed one pass each; passes counts the trace traversals this
	// search actually made. The difference feeds the passes-saved
	// telemetry.
	probes, passes := 1, 1

	// depth is how many bisection levels each pass speculates. Two
	// signals pick it, neither of which can change what is probed or
	// returned — only how many trace traversals the probes are grouped
	// into. First, the cost regime: a pooled replayer remembers the
	// depth its last search's workFrac earned (searches inside one
	// consolidation see near-identical traces); without history, start
	// shallow. Second, the search length: a depth-d tree speculates
	// 2^d-1 probes of which the walk consumes at most d per pass, so
	// full-depth trees only amortize their waste when the span still
	// needs at least two full-depth passes' worth of steps — short
	// searches (a consolidation fitness probe spans ~5 steps at its
	// coarse tolerance) cap at depth 2 however cheap the lanes are.
	deepOK := bisectSteps(hi-lo, tol) >= 2*searchDepth-2
	depthFor := func(hint int) int {
		if hint < 1 {
			hint = 2
		}
		if hint > 2 && !deepOK {
			return 2
		}
		return hint
	}
	depth := depthFor(br.hintDepth)

	tree := treePool.Get().(*bisectTree)
	defer treePool.Put(tree)
	var hiRes Result
	treeLive := false
	if !unclamped {
		// Clamped (hi == limit, nothing to escalate to): decide the
		// ceiling before speculating. A search that does not fit at the
		// server's limit ends after this one lane, without replaying a
		// tree of midpoints — the lanes deepest in deficit — that nobody
		// would read. The lone probe says nothing about the cost regime
		// of the midpoints, so it leaves hintDepth alone.
		var err error
		if hiRes, err = a.replayOne(br, cfg, hi, true); err != nil {
			return SearchOutcome{}, err
		}
		if !hiRes.Fits(cfg.Commitment.Theta) {
			h.Counter("sim_search_infeasible_total").Inc()
			return SearchOutcome{Capacity: hi, Result: hiRes}, nil
		}
	} else {
		// Not clamped (hi == TotalPeak, a lane with next to no hot slots):
		// the hi probe rides along with the speculative first tree of
		// midpoints over (lo, hi), so the walk starts with the first
		// levels already evaluated.
		tree.build(lo, hi, tol, depth)
		k := len(tree.caps)
		caps := append(tree.caps, hi)
		out := tree.out[:k+1]
		if err := a.replayBatch(br, cfg, caps, out, true); err != nil {
			return SearchOutcome{}, err
		}
		tree.caps = caps[:k]
		hiRes = out[k]
		treeLive = true
		br.hintDepth = depthForWorkFrac(br.workFrac)
		depth = depthFor(br.hintDepth)

		if !hiRes.Fits(cfg.Commitment.Theta) {
			// θ or deadline unsatisfiable even at the peak: try the full
			// limit before giving up (deadline backlogs can need headroom).
			treeLive = false // the speculative tree covered (lo, old hi)
			if hi < limit {
				var err error
				if hiRes, err = a.replayOne(br, cfg, limit, true); err != nil {
					return SearchOutcome{}, err
				}
				probes++
				passes++
				hi = limit
			}
			if !hiRes.Fits(cfg.Commitment.Theta) {
				h.Counter("sim_search_infeasible_total").Inc()
				return SearchOutcome{Capacity: hi, Result: hiRes}, nil
			}
		}
	}

	steps := 0
	for hi-lo > tol {
		if err := ctx.Err(); err != nil {
			return SearchOutcome{}, fmt.Errorf("sim: required-capacity search: %w", err)
		}
		if !treeLive {
			tree.build(lo, hi, tol, depth)
			if err := a.replayBatch(br, cfg, tree.caps, tree.out[:len(tree.caps)], true); err != nil {
				return SearchOutcome{}, err
			}
			passes++
			treeLive = true
			br.hintDepth = depthForWorkFrac(br.workFrac)
			depth = depthFor(br.hintDepth)
		}
		// Walk as many levels as this tree evaluated; every decision is
		// the one the scalar bisection would have taken at that probe.
		j := 0
		for hi-lo > tol && j < len(tree.mids) && tree.lanes[j] >= 0 {
			steps++
			mid := tree.mids[j]
			midRes := tree.out[tree.lanes[j]]
			if midRes.Fits(cfg.Commitment.Theta) {
				hi = mid
				hiRes = midRes
				j = 2*j + 1
			} else {
				lo = mid
				j = 2*j + 2
			}
		}
		treeLive = false
	}
	iterations.Add(int64(steps))
	probes += steps
	h.Counter("sim_search_passes_total").Add(int64(passes))
	if saved := probes - passes; saved > 0 {
		h.Counter("sim_search_passes_saved_total").Add(int64(saved))
	}
	return SearchOutcome{Capacity: hi, Result: hiRes, Feasible: true}, nil
}

// replayOne replays a single capacity through the batch replayer (the
// search already holds one, so single probes reuse its buffers), in
// decided-lane mode when decide is set.
func (a *Aggregate) replayOne(br *BatchReplayer, cfg Config, capacity float64, decide bool) (Result, error) {
	one := [1]float64{capacity}
	var res [1]Result
	if err := a.replayBatch(br, cfg, one[:], res[:], decide); err != nil {
		return Result{}, err
	}
	return res[0], nil
}
