// Package wlmgr simulates a resource workload manager (paper section
// II): the component that, on each measurement interval, divides a
// server's capacity among resource containers according to two
// allocation priorities.
//
// Demands associated with the higher priority (CoS1) are allocated
// capacity first; remaining capacity is then allocated to the lower
// priority (CoS2) proportionally to the outstanding requests. The
// package exists to close the loop on R-Opus's promises: replaying raw
// demand traces through a manager configured with a portfolio
// translation lets tests confirm that the application's utilization of
// allocation actually stays inside the promised QoS envelope whenever
// the pool delivers the committed resource access probability.
package wlmgr

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ropus/internal/faultinject"
	"ropus/internal/portfolio"
	"ropus/internal/qos"
	"ropus/internal/robust"
	"ropus/internal/stats"
	"ropus/internal/telemetry"
	"ropus/internal/trace"
)

// Container couples an application's raw demand trace with its portfolio
// translation; the translation defines the per-slot allocation requests
// the manager arbitrates.
type Container struct {
	Demand    *trace.Trace
	Partition *portfolio.Partition
}

// Validate checks the container's consistency.
func (c Container) Validate() error {
	if c.Demand == nil || c.Partition == nil {
		return errors.New("wlmgr: container needs both a demand trace and a partition")
	}
	if err := c.Demand.Validate(); err != nil {
		return err
	}
	if c.Demand.AppID != c.Partition.AppID {
		return fmt.Errorf("wlmgr: demand is for %q but partition for %q",
			c.Demand.AppID, c.Partition.AppID)
	}
	if c.Partition.CoS1.Len() != c.Demand.Len() {
		return fmt.Errorf("wlmgr: app %q: partition covers %d slots, demand %d",
			c.Demand.AppID, c.Partition.CoS1.Len(), c.Demand.Len())
	}
	return nil
}

// ContainerStats is the per-container outcome of a run.
type ContainerStats struct {
	AppID string
	// Received is the capacity granted per slot.
	Received []float64
	// Utilization is demand/received per slot (0 where demand is 0).
	Utilization []float64
	// Err marks a container that dropped out of the replay (injected
	// fault or corrupted data); its slices stay zero from the start and
	// it requests no capacity, mirroring a crashed container whose
	// manager reclaims its share.
	Err error
}

// RunResult is the outcome of simulating a manager over a full trace.
type RunResult struct {
	Containers []ContainerStats
	// CoS1Overload is the number of slots where even the guaranteed
	// class outstripped capacity (a placement bug if it happens).
	CoS1Overload int
	// SlotsReplayed is how many slots were actually simulated; equal to
	// the trace length unless the replay was cancelled.
	SlotsReplayed int
	// Truncated reports that the replay was cancelled before the end of
	// the trace; per-container slices are valid up to SlotsReplayed.
	Truncated bool
}

// Options configures a Replay beyond its capacity and containers.
type Options struct {
	// Lag is the allocation delay in slots: 0 replays the trace-based
	// analysis exactly (allocations react to the current interval), 1
	// models a manager that sizes allocations from the previous
	// interval's demand, and so on.
	Lag int
	// Hooks receives replay telemetry; nil disables it.
	Hooks telemetry.Hooks
	// Inject is the test-only fault injector consulted once per
	// container at the "wlmgr.container" point (keyed by application
	// ID); nil (the production default) injects nothing.
	Inject faultinject.Injector
}

// Replay simulates a workload manager with the given capacity over the
// containers' aligned traces. Cancelling ctx stops the replay at a slot
// boundary (checked every 256 slots) and returns the partial result
// with Truncated set and a nil error; per-container faults mark the
// container's Err and exclude it from arbitration while the rest of the
// replay continues.
func Replay(ctx context.Context, capacity float64, containers []Container, opts Options) (res *RunResult, err error) {
	defer robust.Recover("wlmgr.Replay", &err)
	lag := opts.Lag
	if capacity <= 0 {
		return nil, fmt.Errorf("wlmgr: capacity %v <= 0", capacity)
	}
	if lag < 0 {
		return nil, fmt.Errorf("wlmgr: lag %d < 0", lag)
	}
	if len(containers) == 0 {
		return nil, errors.New("wlmgr: no containers")
	}
	n := 0
	for i, c := range containers {
		if err := c.Validate(); err != nil {
			return nil, err
		}
		if i == 0 {
			n = c.Demand.Len()
		} else if c.Demand.Len() != n {
			return nil, fmt.Errorf("wlmgr: app %q has %d slots, want %d", c.Demand.AppID, c.Demand.Len(), n)
		}
	}

	h := telemetry.OrNop(opts.Hooks)
	ctx, span := telemetry.StartSpanCtx(ctx, opts.Hooks, "wlmgr.replay",
		telemetry.Float("capacity", capacity),
		telemetry.Int("containers", len(containers)),
		telemetry.Int("lag", lag),
		telemetry.Int("slots", n))
	defer span.End()
	var (
		slotsC         = h.Counter("wlmgr_slots_total")
		overloadC      = h.Counter("wlmgr_cos1_overload_slots_total")
		shortfallC     = h.Counter("wlmgr_shortfall_slots_total")
		degradedC      = h.Counter("wlmgr_degraded_container_slots_total")
		containerErrsC = h.Counter("wlmgr_container_errors_total")
		shortfallHist  = h.Histogram("wlmgr_slot_shortfall_cpus", telemetry.ExponentialBuckets(0.0625, 2, 12))
	)
	h.Counter("wlmgr_replays_total").Inc()

	res = &RunResult{Containers: make([]ContainerStats, len(containers))}
	live := make([]bool, len(containers))
	for i, c := range containers {
		res.Containers[i] = ContainerStats{
			AppID:       c.Demand.AppID,
			Received:    make([]float64, n),
			Utilization: make([]float64, n),
		}
		live[i] = true
		if opts.Inject == nil {
			continue
		}
		o := opts.Inject.Hit("wlmgr.container", c.Demand.AppID)
		switch werr := o.Wait(ctx); {
		case ctx.Err() != nil:
			continue // cancelled: the replay below truncates at once
		case werr != nil:
			res.Containers[i].Err = fmt.Errorf("wlmgr: container %q: %w", c.Demand.AppID, werr)
		case o.Corrupt:
			res.Containers[i].Err = fmt.Errorf("wlmgr: container %q: corrupted demand trace", c.Demand.AppID)
		default:
			continue
		}
		live[i] = false
		containerErrsC.Inc()
	}

	req1 := make([]float64, len(containers))
	req2 := make([]float64, len(containers))
	for t := 0; t < n; t++ {
		// Cancellation check amortized over 256 slots: cheap enough for
		// the hot loop, responsive enough for interactive aborts.
		if t&0xff == 0 && ctx.Err() != nil {
			res.Truncated = true
			break
		}
		// Requests come from the translated allocation traces, lagged.
		src := t - lag
		var sum1, sum2 float64
		for i, c := range containers {
			if !live[i] {
				req1[i], req2[i] = 0, 0
				continue
			}
			if src < 0 {
				// Before the first measurement the manager has no
				// demand estimate; grant the slot's request directly
				// (equivalent to a warm start).
				req1[i] = c.Partition.CoS1.Samples[t]
				req2[i] = c.Partition.CoS2.Samples[t]
			} else {
				req1[i] = c.Partition.CoS1.Samples[src]
				req2[i] = c.Partition.CoS2.Samples[src]
			}
			sum1 += req1[i]
			sum2 += req2[i]
		}

		// Priority 1 first. If the guaranteed class alone exceeds
		// capacity the placement was broken; grant proportionally and
		// record the overload.
		scale1 := 1.0
		if sum1 > capacity {
			scale1 = capacity / sum1
			res.CoS1Overload++
			overloadC.Inc()
		}
		remaining := capacity - sum1*scale1
		scale2 := 1.0
		if sum2 > remaining {
			if sum2 > 0 {
				scale2 = remaining / sum2
			} else {
				scale2 = 0
			}
		}
		slotsC.Inc()
		if shortfall := sum1*(1-scale1) + sum2*(1-scale2); shortfall > 1e-9 {
			shortfallC.Inc()
			shortfallHist.Observe(shortfall)
		}

		for i, c := range containers {
			if !live[i] {
				continue
			}
			got := req1[i]*scale1 + req2[i]*scale2
			res.Containers[i].Received[t] = got
			d := c.Demand.Samples[t]
			if d > 0 && got > 0 {
				res.Containers[i].Utilization[t] = d / got
			} else if d > 0 {
				res.Containers[i].Utilization[t] = 1 // starved: fully saturated
			}
			// A container-slot is degraded when the manager granted less
			// than the demand (utilization of allocation above 1).
			if d > got*(1+1e-9) {
				degradedC.Inc()
			}
		}
		res.SlotsReplayed = t + 1
	}
	span.SetAttr(
		telemetry.Int("cos1_overloads", res.CoS1Overload),
		telemetry.Int("slots_replayed", res.SlotsReplayed),
		telemetry.Bool("truncated", res.Truncated))
	return res, nil
}

// Compliance summarizes a container's achieved QoS against a
// requirement.
type Compliance struct {
	// AcceptableFraction is the fraction of non-idle slots with
	// utilization of allocation <= Uhigh.
	AcceptableFraction float64
	// DegradedFraction is the fraction of slots with Uhigh < U <= Udegr.
	DegradedFraction float64
	// ViolatedFraction is the fraction of slots with U > Udegr.
	ViolatedFraction float64
	// MaxUtilization is the largest observed utilization of allocation.
	MaxUtilization float64
	// LongestDegraded is the longest contiguous degraded period.
	LongestDegraded time.Duration
	// MaxDegradedInDay is the largest number of degraded epochs
	// observed within one calendar day.
	MaxDegradedInDay int
	// Satisfied reports whether the requirement held: no slot beyond
	// Udegr, at most Mdegr percent degraded, no degraded run longer
	// than Tdegr (when set), and no day over the per-day epoch budget
	// (when set).
	Satisfied bool
}

// CheckCompliance evaluates achieved utilizations against a requirement.
// The interval is the slot duration of the underlying traces.
func CheckCompliance(cs ContainerStats, q qos.AppQoS, interval time.Duration) (Compliance, error) {
	if err := q.Validate(); err != nil {
		return Compliance{}, err
	}
	if len(cs.Utilization) == 0 {
		return Compliance{}, errors.New("wlmgr: no utilization samples")
	}
	const relTol = 1e-9
	var c Compliance
	n := len(cs.Utilization)
	for _, u := range cs.Utilization {
		if u > c.MaxUtilization {
			c.MaxUtilization = u
		}
		switch {
		case u > q.UDegr*(1+relTol):
			c.ViolatedFraction++
		case u > q.UHigh*(1+relTol):
			c.DegradedFraction++
		default:
			c.AcceptableFraction++
		}
	}
	c.AcceptableFraction /= float64(n)
	c.DegradedFraction /= float64(n)
	c.ViolatedFraction /= float64(n)

	run := stats.LongestRunAbove(cs.Utilization, q.UHigh*(1+relTol))
	c.LongestDegraded = time.Duration(run.Length) * interval

	if interval > 0 {
		slotsPerDay := int(24 * time.Hour / interval)
		if slotsPerDay > 0 {
			for start := 0; start < n; start += slotsPerDay {
				end := start + slotsPerDay
				if end > n {
					end = n
				}
				count := 0
				for _, u := range cs.Utilization[start:end] {
					if u > q.UHigh*(1+relTol) {
						count++
					}
				}
				if count > c.MaxDegradedInDay {
					c.MaxDegradedInDay = count
				}
			}
		}
	}

	c.Satisfied = c.ViolatedFraction == 0 &&
		c.DegradedFraction*100 <= q.MDegrPercent()+relTol
	if r, limited := q.TDegrSlots(interval); limited && run.Length > r {
		c.Satisfied = false
	}
	if q.MaxDegradedPerDay > 0 && c.MaxDegradedInDay > q.MaxDegradedPerDay {
		c.Satisfied = false
	}
	return c, nil
}
