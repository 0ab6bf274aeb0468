package sim

import "fmt"

// Diagnostics exposes what the scalar Result hides: where in the
// calendar the resource access probability is lost. Operators use it to
// see which (week, time-of-day slot) group drives the required capacity
// of a server (Figure 4's simulator reports only the verdict; this is
// the accompanying evidence).
type Diagnostics struct {
	// SlotsPerDay is T, the number of time-of-day slots.
	SlotsPerDay int
	// WorstWeek and WorstSlot locate the first group, in group order,
	// whose access ratio is the measured θ; (0, 0) when every group is
	// served in full.
	WorstWeek int
	WorstSlot int
	// Theta is the measured resource access probability, bit-equal to
	// Replay's Result.Theta at the same capacity.
	Theta float64
}

// Diagnose replays the aggregate like Replay and locates the binding θ
// group. Only a hot group can have a ratio below 1, so the worst group
// is read off the hot-group sums the kernel's own pass left behind.
func (a *Aggregate) Diagnose(cfg Config) (*Diagnostics, error) {
	br := batchPool.Get().(*BatchReplayer)
	defer batchPool.Put(br)
	res, err := a.replayOne(br, cfg, cfg.Capacity, false)
	if err != nil {
		return nil, err
	}
	t := cfg.SlotsPerDay
	d := &Diagnostics{SlotsPerDay: t, Theta: res.Theta}
	worst := 1.0
	for _, g := range br.hotGroups {
		if ratio := groupRatio(br.req[g], br.served[g]); ratio < worst {
			worst = ratio
			d.WorstWeek, d.WorstSlot = g/t, g%t
		}
	}
	return d, nil
}

// String summarizes the diagnostics in one line.
func (d *Diagnostics) String() string {
	return fmt.Sprintf("theta=%.4f (worst at week %d, slot %d of %d)",
		d.Theta, d.WorstWeek, d.WorstSlot, d.SlotsPerDay)
}
