// Package portfolio implements R-Opus's QoS translation (paper
// section V): partitioning an application's workload demands across the
// resource pool's two classes of service so that the application's QoS
// requirement is met as long as the pool honours its per-CoS resource
// access commitments.
//
// The method is motivated by portfolio theory: CoS1 (guaranteed) and
// CoS2 (probabilistic, access probability θ) are investments with
// different risk, and demand is divided between them so that the
// worst-case utilization of allocation stays within the application's
// tolerated range.
//
// Three steps, mirroring the paper:
//
//  1. The breakpoint p = (Ulow/Uhigh - θ)/(1 - θ) (formula 1) splits
//     demand between CoS1 and CoS2 for the acceptable range.
//  2. The degraded-performance allowance (Mdegr, Udegr) caps the maximum
//     demand D_new_max at max(D_M%, D_max*Uhigh/Udegr) (formulas 2-3);
//     the reduction is bounded by 1 - Uhigh/Udegr (formula 5).
//  3. The time-limited degradation constraint Tdegr iteratively raises
//     the cap to break runs of more than R contiguous degraded
//     observations (formulas 6-11).
package portfolio

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"ropus/internal/qos"
	"ropus/internal/stats"
	"ropus/internal/telemetry"
	"ropus/internal/trace"
)

// ErrNoConvergence is returned if the Tdegr analysis fails to reach a
// fixed point; with a monotonically increasing cap this indicates a bug
// or NaN input rather than a property of the workload.
var ErrNoConvergence = errors.New("portfolio: Tdegr analysis did not converge")

// Breakpoint computes p, the fraction of the (capped) peak demand
// associated with CoS1 (paper formula 1). If θ >= Ulow/Uhigh all demand
// can ride on CoS2 and p = 0.
func Breakpoint(uLow, uHigh, theta float64) (float64, error) {
	if !(uLow > 0 && uLow <= uHigh && uHigh < 1) {
		return 0, fmt.Errorf("portfolio: need 0 < Ulow <= Uhigh < 1, got (%v,%v)", uLow, uHigh)
	}
	if !(theta > 0 && theta <= 1) {
		return 0, fmt.Errorf("portfolio: need 0 < theta <= 1, got %v", theta)
	}
	ratio := uLow / uHigh
	if ratio <= theta {
		return 0, nil
	}
	// theta < ratio <= 1 here, so theta < 1 and the division is safe.
	return (ratio - theta) / (1 - theta), nil
}

// MaxCapReductionBound is the upper bound on the possible reduction of
// the maximum allocation from allowing degraded performance (paper
// formula 5): 1 - Uhigh/Udegr. It depends only on Uhigh and Udegr.
func MaxCapReductionBound(uHigh, uDegr float64) float64 {
	if uDegr <= 0 {
		return 0
	}
	return 1 - uHigh/uDegr
}

// MaxAllocationTrend returns a value proportional to the maximum
// allocation required per application when the time-limited degradation
// constraint is active, as a function of θ (paper Figure 3): the
// allocation needed to serve a fixed demand at utilization Uhigh in the
// worst case is proportional to 1/(p(1-θ)+θ).
func MaxAllocationTrend(uLow, uHigh, theta float64) (float64, error) {
	p, err := Breakpoint(uLow, uHigh, theta)
	if err != nil {
		return 0, err
	}
	return 1 / (p*(1-theta) + theta), nil
}

// Partition is the result of translating one application's demands onto
// the pool's two classes of service. CoS1 and CoS2 are per-slot
// allocation traces in CPU units; their sum is the application's
// requested allocation.
type Partition struct {
	// AppID identifies the translated application.
	AppID string
	// QoS is the application requirement used for the translation.
	QoS qos.AppQoS
	// Theta is the CoS2 resource access probability assumed.
	Theta float64
	// P is the breakpoint: the fraction of DNewMax served by CoS1.
	P float64
	// DMax is the original peak demand of the trace.
	DMax float64
	// DNewMax is the capped maximum demand controlling the maximum
	// allocation (paper formulas 2, 3 and 10).
	DNewMax float64
	// CoS1 and CoS2 hold the per-slot allocation requirements for the
	// guaranteed and probabilistic classes.
	CoS1 *trace.Trace
	CoS2 *trace.Trace
}

// MaxAllocation returns the application's maximum CPU allocation,
// DNewMax / Ulow.
func (p *Partition) MaxAllocation() float64 { return p.DNewMax / p.QoS.ULow }

// MaxCapReduction returns the achieved reduction of the maximum
// allocation relative to the uncapped peak (paper Figure 7), in [0,1].
func (p *Partition) MaxCapReduction() float64 {
	if p.DMax == 0 {
		return 0
	}
	return 1 - p.DNewMax/p.DMax
}

// CoS1Peak returns the peak CoS1 allocation; the placement service must
// guarantee the sum of these over a server stays within its capacity.
func (p *Partition) CoS1Peak() float64 { return p.CoS1.Peak() }

// Total returns the per-slot total requested allocation (CoS1 + CoS2).
func (p *Partition) Total() *trace.Trace {
	out := p.CoS1.Clone()
	out.AppID = p.AppID
	for i, v := range p.CoS2.Samples {
		out.Samples[i] += v
	}
	return out
}

// WorstCaseUtilization returns the application's utilization of
// allocation for demand d assuming CoS1 is fully satisfied and CoS2 is
// satisfied at exactly the committed probability θ — the worst case the
// pool commitment permits. A zero demand yields zero.
func (p *Partition) WorstCaseUtilization(d float64) float64 {
	if d <= 0 {
		return 0
	}
	received := worstCaseReceived(d, p.DNewMax, p.P, p.Theta, p.QoS.ULow)
	if received <= 0 {
		return math.Inf(1)
	}
	return d / received
}

// DegradedFraction returns the fraction of trace observations whose
// worst-case utilization of allocation exceeds Uhigh (paper Figure 8).
func (p *Partition) DegradedFraction(tr *trace.Trace) float64 {
	if tr.Len() == 0 {
		return 0
	}
	n := 0
	for _, d := range tr.Samples {
		if degraded(p.WorstCaseUtilization(d), p.QoS.UHigh) {
			n++
		}
	}
	return float64(n) / float64(tr.Len())
}

// worstCaseReceived computes the capacity an application receives for
// demand d in the worst case: allocations are requested with burst
// factor 1/Ulow against the demand capped at dNewMax, split at the
// breakpoint; CoS1 is fully delivered and CoS2 delivered at fraction θ.
func worstCaseReceived(d, dNewMax, p, theta, uLow float64) float64 {
	granted := math.Min(d, dNewMax)
	cos1 := math.Min(granted, p*dNewMax)
	cos2 := granted - cos1
	return (cos1 + theta*cos2) / uLow
}

// degraded reports whether utilization u exceeds uHigh, with a relative
// tolerance so that observations engineered to sit exactly at Uhigh by
// the Tdegr analysis do not flip to degraded through rounding.
func degraded(u, uHigh float64) bool {
	const relTol = 1e-9
	return u > uHigh*(1+relTol)
}

// Translate maps one application's demand trace onto the pool's two
// classes of service under the given QoS requirement and CoS2 access
// probability θ (paper section V, all three steps).
func Translate(tr *trace.Trace, q qos.AppQoS, theta float64) (*Partition, error) {
	return TranslateCtx(context.Background(), tr, q, theta, nil)
}

// TranslateCtx is Translate with telemetry and trace correlation: a
// per-application span, opened through ctx so it nests under the
// caller's span and carries the run's trace ID, plus translation timing
// and cap-analysis iteration counters. A nil Hooks disables all of it.
func TranslateCtx(ctx context.Context, tr *trace.Trace, q qos.AppQoS, theta float64, hooks telemetry.Hooks) (*Partition, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	h := telemetry.OrNop(hooks)
	start := time.Now()
	_, span := telemetry.StartSpanCtx(ctx, hooks, "portfolio.translate",
		telemetry.String("app", tr.AppID),
		telemetry.Float("theta", theta))
	defer span.End()
	defer func() {
		h.Histogram("portfolio_translate_seconds", nil).Observe(time.Since(start).Seconds())
	}()
	h.Counter("portfolio_translations_total").Inc()
	capIterations := h.Counter("portfolio_cap_iterations_total")

	p, err := Breakpoint(q.ULow, q.UHigh, theta)
	if err != nil {
		return nil, err
	}

	dMax := tr.Peak()
	cap, err := initialCap(tr, q, dMax)
	if err != nil {
		return nil, err
	}
	if r, limited := q.TDegrSlots(tr.Interval); limited {
		cap, err = applyTDegr(tr.Samples, q, p, theta, cap, r, capIterations)
		if err != nil {
			return nil, fmt.Errorf("portfolio: app %q: %w", tr.AppID, err)
		}
	}
	if q.MaxDegradedPerDay > 0 {
		cap, err = applyDailyBudget(tr.Samples, q, p, theta, cap, tr.SlotsPerDay(), capIterations)
		if err != nil {
			return nil, fmt.Errorf("portfolio: app %q: %w", tr.AppID, err)
		}
	}
	span.SetAttr(telemetry.Float("d_max", dMax), telemetry.Float("d_new_max", cap))

	part := &Partition{
		AppID:   tr.AppID,
		QoS:     q,
		Theta:   theta,
		P:       p,
		DMax:    dMax,
		DNewMax: cap,
		CoS1:    &trace.Trace{AppID: tr.AppID, Interval: tr.Interval, Samples: make([]float64, tr.Len())},
		CoS2:    &trace.Trace{AppID: tr.AppID, Interval: tr.Interval, Samples: make([]float64, tr.Len())},
	}
	breakDemand := p * cap
	for i, d := range tr.Samples {
		granted := math.Min(d, cap)
		cos1 := math.Min(granted, breakDemand)
		part.CoS1.Samples[i] = cos1 / q.ULow
		part.CoS2.Samples[i] = (granted - cos1) / q.ULow
	}
	return part, nil
}

// initialCap applies the degraded-performance allowance (paper step 2):
// with no allowance the cap is D_max; otherwise it is
// max(D_M%, D_max * Uhigh/Udegr), which simultaneously respects the
// M-percent budget and the Udegr ceiling (formulas 2 and 3).
func initialCap(tr *trace.Trace, q qos.AppQoS, dMax float64) (float64, error) {
	if q.MDegrPercent() <= 0 || dMax == 0 {
		return dMax, nil
	}
	// Nearest-rank (higher) semantics guarantee that at most Mdegr
	// percent of samples lie strictly above D_M% on traces of any size.
	dM, err := stats.PercentileNearestRank(tr.Samples, q.MPercent)
	if err != nil {
		return 0, err
	}
	aOK := dM / q.UHigh
	aDegr := dMax / q.UDegr
	if aOK >= aDegr {
		return dM, nil
	}
	return dMax * q.UHigh / q.UDegr, nil
}

// applyTDegr iteratively raises the cap until no run of more than r
// contiguous observations is degraded in the worst case (paper step 3,
// formulas 6-11). Each iteration takes the first over-long degraded
// run, finds its smallest demand D_min_degr among the first r+1
// observations, and recomputes the cap so that D_min_degr is served at
// utilization Uhigh exactly (formula 10), breaking the run.
func applyTDegr(samples []float64, q qos.AppQoS, p, theta, cap float64, r int, iterC *telemetry.Counter) (float64, error) {
	// Worst-case degraded <=> utilization > Uhigh. Expressed on demand:
	// d > cap * (p + theta*(1-p)) * Uhigh/Ulow =: cap * k.
	k := (p + theta*(1-p)) * q.UHigh / q.ULow
	factor := q.ULow / (q.UHigh * (p*(1-theta) + theta)) // formula 10 coefficient

	// The cap increases monotonically and each iteration pins it to a
	// distinct trace demand times a constant, so it converges within
	// len(samples) iterations.
	for iter := 0; iter <= len(samples); iter++ {
		iterC.Inc()
		run, found := firstLongRunAbove(samples, cap*k, r)
		if !found {
			return cap, nil
		}
		// Only r+1 contiguous degraded observations are needed to
		// violate the constraint; breaking the minimum among the first
		// r+1 suffices and matches the paper's presentation.
		window := r + 1
		if window > run.Length {
			window = run.Length
		}
		dMinDegr, _, err := stats.MinInRange(samples, run.Start, window)
		if err != nil {
			return 0, err
		}
		newCap := dMinDegr * factor
		if !(newCap > cap) {
			return 0, fmt.Errorf("%w: cap stalled at %v", ErrNoConvergence, cap)
		}
		cap = newCap
	}
	return 0, ErrNoConvergence
}

// applyDailyBudget iteratively raises the cap until no calendar day has
// more than q.MaxDegradedPerDay worst-case degraded observations (the
// per-period epoch budget of paper footnote 2). Like the Tdegr
// analysis, each iteration un-degrades the smallest degraded demand of
// the first over-budget day, so the cap increases monotonically and the
// loop converges within len(samples) iterations.
func applyDailyBudget(samples []float64, q qos.AppQoS, p, theta, cap float64, slotsPerDay int, iterC *telemetry.Counter) (float64, error) {
	if slotsPerDay <= 0 {
		return 0, fmt.Errorf("portfolio: slotsPerDay %d <= 0", slotsPerDay)
	}
	k := (p + theta*(1-p)) * q.UHigh / q.ULow
	factor := q.ULow / (q.UHigh * (p*(1-theta) + theta))

	for iter := 0; iter <= len(samples); iter++ {
		iterC.Inc()
		day, minDemand, found := firstOverBudgetDay(samples, cap*k, slotsPerDay, q.MaxDegradedPerDay)
		if !found {
			return cap, nil
		}
		newCap := minDemand * factor
		if !(newCap > cap) {
			return 0, fmt.Errorf("%w: daily budget cap stalled at %v (day %d)", ErrNoConvergence, cap, day)
		}
		cap = newCap
	}
	return 0, ErrNoConvergence
}

// firstOverBudgetDay scans day by day for more than budget samples above
// threshold and returns the day index and the smallest exceeding demand
// in that day.
func firstOverBudgetDay(samples []float64, threshold float64, slotsPerDay, budget int) (day int, minDemand float64, found bool) {
	nDays := (len(samples) + slotsPerDay - 1) / slotsPerDay
	for d := 0; d < nDays; d++ {
		start := d * slotsPerDay
		end := start + slotsPerDay
		if end > len(samples) {
			end = len(samples)
		}
		count := 0
		minV := math.Inf(1)
		for i := start; i < end; i++ {
			if samples[i] > threshold {
				count++
				if samples[i] < minV {
					minV = samples[i]
				}
			}
		}
		if count > budget {
			return d, minV, true
		}
	}
	return 0, 0, false
}

// firstLongRunAbove returns the first maximal run of consecutive samples
// strictly above threshold whose length exceeds r.
func firstLongRunAbove(samples []float64, threshold float64, r int) (stats.Run, bool) {
	for _, run := range stats.RunsAbove(samples, threshold) {
		if run.Length > r {
			return run, true
		}
	}
	return stats.Run{}, false
}
