package sim

import (
	"fmt"
	"math"
)

// Diagnostics exposes what the scalar Result hides: where in the
// calendar the resource access probability is earned or lost. Operators
// use it to see which time-of-day slots drive the required capacity of
// a server (Figure 4's simulator reports only the verdict; this is the
// accompanying evidence).
type Diagnostics struct {
	// SlotsPerDay is T, the table width.
	SlotsPerDay int
	// Weeks is the number of week rows.
	Weeks int
	// GroupTheta holds the per-(week, slot) access ratio
	// Σ_days served / Σ_days requested, indexed week*SlotsPerDay+slot;
	// groups with no CoS2 demand report 1.
	GroupTheta []float64
	// WorstWeek and WorstSlot locate the minimum (the measured θ).
	WorstWeek int
	WorstSlot int
	// Theta is the measured resource access probability (the minimum of
	// GroupTheta).
	Theta float64
	// SlotShortfall holds, per time-of-day slot, the total CoS2 demand
	// (in CPU-slots) that was not served on request across the whole
	// trace — the capacity pressure profile over the day.
	SlotShortfall []float64
}

// Diagnose replays the aggregate like Replay but records the
// per-(week, slot) access ratios and the per-slot shortfall profile.
func (a *Aggregate) Diagnose(cfg Config) (*Diagnostics, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	const eps = 1e-9
	t := cfg.SlotsPerDay
	n := a.Slots()
	weeks := n / (7 * t)
	if weeks == 0 {
		weeks = 1
	}
	d := &Diagnostics{
		SlotsPerDay:   t,
		Weeks:         weeks,
		SlotShortfall: make([]float64, t),
	}
	requested := make([]float64, weeks*t)
	served := make([]float64, weeks*t)

	for i := 0; i < n; i++ {
		avail := cfg.Capacity - a.cos1[i]
		if avail < 0 {
			avail = 0
		}
		req := a.cos2[i]
		srv := math.Min(req, avail)
		w := i / (7 * t)
		if w >= weeks {
			w = weeks - 1
		}
		g := w*t + i%t
		requested[g] += req
		served[g] += srv
		d.SlotShortfall[i%t] += req - srv
	}

	d.GroupTheta = make([]float64, weeks*t)
	d.Theta = 1
	for g := range d.GroupTheta {
		ratio := 1.0
		if requested[g] > eps {
			ratio = served[g] / requested[g]
		}
		d.GroupTheta[g] = ratio
		if ratio < d.Theta {
			d.Theta = ratio
			d.WorstWeek = g / t
			d.WorstSlot = g % t
		}
	}
	return d, nil
}

// String summarizes the diagnostics in one line.
func (d *Diagnostics) String() string {
	return fmt.Sprintf("theta=%.4f (worst at week %d, slot %d of %d)",
		d.Theta, d.WorstWeek, d.WorstSlot, d.SlotsPerDay)
}
