package trace

import "fmt"

// Window returns the sub-trace covering the whole days
// [startDay, startDay+days). The result shares no storage with t.
func (t *Trace) Window(startDay, days int) (*Trace, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	slots := t.SlotsPerDay()
	if startDay < 0 || days <= 0 || (startDay+days)*slots > len(t.Samples) {
		return nil, fmt.Errorf("trace: window days [%d,%d) out of range for %d-day trace",
			startDay, startDay+days, t.Days())
	}
	out := &Trace{
		AppID:    t.AppID,
		Interval: t.Interval,
		Samples:  make([]float64, days*slots),
	}
	copy(out.Samples, t.Samples[startDay*slots:(startDay+days)*slots])
	return out, nil
}

// LastWeeks returns the trailing n whole weeks of the trace — the
// "recent data" the paper recommends working with so that capacity
// plans adapt to slow demand change.
func (t *Trace) LastWeeks(n int) (*Trace, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	weeks := t.Weeks()
	if n <= 0 || n > weeks {
		return nil, fmt.Errorf("trace: cannot take last %d weeks of a %d-week trace", n, weeks)
	}
	return t.Window((weeks-n)*7, n*7)
}

// Concat returns a new trace with other's samples appended to t's. Both
// traces must describe the same application at the same interval.
func (t *Trace) Concat(other *Trace) (*Trace, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if other == nil {
		return nil, fmt.Errorf("trace: nil trace to concatenate")
	}
	if err := other.Validate(); err != nil {
		return nil, err
	}
	if t.AppID != other.AppID {
		return nil, fmt.Errorf("trace: cannot concatenate %q with %q", t.AppID, other.AppID)
	}
	if t.Interval != other.Interval {
		return nil, fmt.Errorf("trace: interval mismatch %v vs %v", t.Interval, other.Interval)
	}
	out := &Trace{
		AppID:    t.AppID,
		Interval: t.Interval,
		Samples:  make([]float64, 0, len(t.Samples)+len(other.Samples)),
	}
	out.Samples = append(out.Samples, t.Samples...)
	out.Samples = append(out.Samples, other.Samples...)
	return out, nil
}
