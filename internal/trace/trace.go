// Package trace implements the workload demand traces at the heart of
// R-Opus's trace-based capacity management (paper section II).
//
// Each application workload is characterized by several weeks of demand
// observations, one per measurement interval (five minutes in the paper,
// giving T = 288 slots per day). The placement simulator's resource
// access probability θ is defined over the (week, day-of-week, slot)
// structure of these traces, so the package models that calendar
// structure explicitly.
//
// Demand values are expressed in CPU units: a demand of 2.0 means the
// application consumed the equivalent of two fully-busy CPUs during the
// interval.
package trace

import (
	"errors"
	"fmt"
	"math"
	"time"

	"ropus/internal/stats"
)

// DefaultInterval is the paper's measurement interval (5 minutes,
// T = 288 slots per day).
const DefaultInterval = 5 * time.Minute

const day = 24 * time.Hour

// Common validation errors.
var (
	ErrNoSamples      = errors.New("trace: no samples")
	ErrBadInterval    = errors.New("trace: interval must be positive and divide 24h")
	ErrNegativeDemand = errors.New("trace: negative demand sample")
	ErrBadSample      = errors.New("trace: NaN or infinite demand sample")
)

// Trace is a demand time series for one application workload.
type Trace struct {
	// AppID identifies the application workload this trace belongs to.
	AppID string
	// Interval is the measurement interval between samples. It must be
	// positive and divide 24 hours evenly so that samples align to
	// day-of-week slots.
	Interval time.Duration
	// Samples holds one CPU demand observation per interval, oldest
	// first. Sample i covers [i*Interval, (i+1)*Interval).
	Samples []float64
}

// New returns a Trace after validating it. Callers that construct a
// Trace literal directly should call Validate before use.
func New(appID string, interval time.Duration, samples []float64) (*Trace, error) {
	tr := &Trace{AppID: appID, Interval: interval, Samples: samples}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// Validate checks structural invariants: a positive interval that
// divides 24h, at least one sample, and finite non-negative demands.
func (t *Trace) Validate() error {
	if t.Interval <= 0 || day%t.Interval != 0 {
		return fmt.Errorf("%w: %v", ErrBadInterval, t.Interval)
	}
	if len(t.Samples) == 0 {
		return fmt.Errorf("%w (app %q)", ErrNoSamples, t.AppID)
	}
	for i, v := range t.Samples {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: sample %d of app %q", ErrBadSample, i, t.AppID)
		}
		if v < 0 {
			return fmt.Errorf("%w: sample %d of app %q is %v", ErrNegativeDemand, i, t.AppID, v)
		}
	}
	return nil
}

// Len returns the number of samples.
func (t *Trace) Len() int { return len(t.Samples) }

// SlotsPerDay returns T, the number of measurement slots per day.
func (t *Trace) SlotsPerDay() int { return int(day / t.Interval) }

// Days returns the number of complete days covered by the trace.
func (t *Trace) Days() int { return len(t.Samples) / t.SlotsPerDay() }

// Weeks returns the number of complete weeks covered by the trace.
func (t *Trace) Weeks() int { return t.Days() / 7 }

// Index returns the sample index for (week, dayOfWeek, slot).
func (t *Trace) Index(week, dayOfWeek, slot int) int {
	return (week*7+dayOfWeek)*t.SlotsPerDay() + slot
}

// Peak returns the maximum demand D_max in the trace.
func (t *Trace) Peak() float64 {
	m, err := stats.Max(t.Samples)
	if err != nil {
		return 0
	}
	return m
}

// Percentile returns the p-th percentile demand D_p% of the trace.
func (t *Trace) Percentile(p float64) (float64, error) {
	return stats.Percentile(t.Samples, p)
}

// Mean returns the mean demand of the trace.
func (t *Trace) Mean() float64 {
	m, err := stats.Mean(t.Samples)
	if err != nil {
		return 0
	}
	return m
}

// Clone returns a deep copy of the trace.
func (t *Trace) Clone() *Trace {
	samples := make([]float64, len(t.Samples))
	copy(samples, t.Samples)
	return &Trace{AppID: t.AppID, Interval: t.Interval, Samples: samples}
}

// Scale returns a new trace with every sample multiplied by factor.
func (t *Trace) Scale(factor float64) *Trace {
	out := t.Clone()
	for i := range out.Samples {
		out.Samples[i] *= factor
	}
	return out
}

// Map returns a new trace with fn applied to every sample.
func (t *Trace) Map(fn func(float64) float64) *Trace {
	out := t.Clone()
	for i := range out.Samples {
		out.Samples[i] = fn(out.Samples[i])
	}
	return out
}

// Cap returns a new trace with every sample capped at limit, i.e.
// min(sample, limit). The portfolio translation uses this to apply the
// new maximum demand D_new_max.
func (t *Trace) Cap(limit float64) *Trace {
	return t.Map(func(v float64) float64 { return math.Min(v, limit) })
}

// Set is an ordered collection of traces for distinct applications.
type Set []*Trace

// Validate checks every member trace, that all intervals and lengths
// agree (the placement simulator replays them in lockstep), and that
// application IDs are unique.
func (s Set) Validate() error {
	if len(s) == 0 {
		return errors.New("trace: empty trace set")
	}
	seen := make(map[string]bool, len(s))
	for i, tr := range s {
		if tr == nil {
			return fmt.Errorf("trace: nil trace at index %d", i)
		}
		if err := tr.Validate(); err != nil {
			return err
		}
		if seen[tr.AppID] {
			return fmt.Errorf("trace: duplicate app ID %q", tr.AppID)
		}
		seen[tr.AppID] = true
		if tr.Interval != s[0].Interval {
			return fmt.Errorf("trace: app %q interval %v differs from %v",
				tr.AppID, tr.Interval, s[0].Interval)
		}
		if len(tr.Samples) != len(s[0].Samples) {
			return fmt.Errorf("trace: app %q has %d samples, want %d",
				tr.AppID, len(tr.Samples), len(s[0].Samples))
		}
	}
	return nil
}

// ByID returns the trace with the given application ID, or nil.
func (s Set) ByID(appID string) *Trace {
	for _, tr := range s {
		if tr.AppID == appID {
			return tr
		}
	}
	return nil
}

// IDs returns the application IDs in set order.
func (s Set) IDs() []string {
	ids := make([]string, len(s))
	for i, tr := range s {
		ids[i] = tr.AppID
	}
	return ids
}

// TotalPeak returns the sum of per-application peak demands. The pool is
// overbooked when this exceeds pool capacity (paper section I).
func (s Set) TotalPeak() float64 {
	sum := 0.0
	for _, tr := range s {
		sum += tr.Peak()
	}
	return sum
}

// Sum returns the aggregate demand trace (per-slot sum across the set).
// The set must be non-empty and aligned; call Validate first.
func (s Set) Sum() (*Trace, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	agg := &Trace{
		AppID:    "aggregate",
		Interval: s[0].Interval,
		Samples:  make([]float64, len(s[0].Samples)),
	}
	for _, tr := range s {
		for i, v := range tr.Samples {
			agg.Samples[i] += v
		}
	}
	return agg, nil
}

// Clone deep-copies the set.
func (s Set) Clone() Set {
	out := make(Set, len(s))
	for i, tr := range s {
		out[i] = tr.Clone()
	}
	return out
}
