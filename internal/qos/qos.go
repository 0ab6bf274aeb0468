// Package qos defines the two independent quality-of-service vocabularies
// of R-Opus (paper sections III and IV):
//
//   - Application QoS requirements: an acceptable range [Ulow, Uhigh] for
//     the application's utilization of allocation, an Mdegr percentage of
//     measurements that may run degraded (but never beyond Udegr), and a
//     limit Tdegr on how long degradation may persist contiguously.
//     Requirements come in pairs, one for normal operation and one for
//     operation during a server failure.
//
//   - Resource-pool QoS commitments: the pool operator's promise for the
//     two classes of service. CoS1 is guaranteed; CoS2 offers a resource
//     access probability θ together with a deadline s within which
//     demands not satisfied on request must be satisfied.
//
// The portfolio translation (package portfolio) consumes both to decide
// how each application's demands are split across the two classes.
package qos

import (
	"errors"
	"fmt"
	"time"
)

// ClassOfService identifies one of the pool's two classes of service.
type ClassOfService int

const (
	// CoS1 is the guaranteed class: the placement service ensures the
	// sum of per-application peak CoS1 allocations never exceeds the
	// capacity of a resource.
	CoS1 ClassOfService = iota + 1
	// CoS2 is the statistically-multiplexed class, offered with a
	// resource access probability θ.
	CoS2
)

// String implements fmt.Stringer.
func (c ClassOfService) String() string {
	switch c {
	case CoS1:
		return "CoS1"
	case CoS2:
		return "CoS2"
	default:
		return fmt.Sprintf("ClassOfService(%d)", int(c))
	}
}

// Validation errors for AppQoS and PoolCommitment.
var (
	ErrURange      = errors.New("qos: need 0 < Ulow <= Uhigh < 1")
	ErrUDegr       = errors.New("qos: need Uhigh <= Udegr < 1")
	ErrMPercent    = errors.New("qos: need 0 < MPercent <= 100")
	ErrTDegr       = errors.New("qos: TDegr must be non-negative")
	ErrTheta       = errors.New("qos: need 0 < Theta <= 1")
	ErrDeadline    = errors.New("qos: deadline must be non-negative")
	ErrEpochBudget = errors.New("qos: MaxDegradedPerDay must be non-negative")
)

// AppQoS is an application owner's QoS requirement for one mode of
// operation (normal or failure).
//
// The acceptable range is expressed on the utilization of allocation
// U_alloc = demand / allocation: Ulow corresponds to the ideal burst
// factor 1/Ulow, Uhigh to the largest burst factor users still accept.
type AppQoS struct {
	// ULow is the utilization of allocation giving ideal application
	// performance; 1/ULow is the burst factor used to size allocations.
	ULow float64
	// UHigh is the threshold beyond which performance is undesirable.
	UHigh float64
	// UDegr bounds utilization of allocation during degraded operation.
	// It must be strictly below 1 so demands are still satisfied within
	// their measurement interval.
	UDegr float64
	// MPercent is the minimum percentage of measurements whose
	// utilization of allocation must lie within [ULow, UHigh]. The
	// remaining Mdegr = 100 - MPercent percent may degrade up to UDegr.
	MPercent float64
	// TDegr is the maximum contiguous time degradation may persist.
	// Zero means no contiguous-time limit.
	TDegr time.Duration
	// MaxDegradedPerDay additionally bounds the number of degraded
	// measurement epochs within any calendar day; zero means no per-day
	// budget. The paper (section III, footnote 2) calls this out as a
	// useful enhancement to the Mdegr/Tdegr pair.
	MaxDegradedPerDay int
}

// Validate checks the constraints from section III of the paper.
func (q AppQoS) Validate() error {
	if !(q.ULow > 0 && q.ULow <= q.UHigh && q.UHigh < 1) {
		return fmt.Errorf("%w: Ulow=%v Uhigh=%v", ErrURange, q.ULow, q.UHigh)
	}
	if !(q.UDegr >= q.UHigh && q.UDegr < 1) {
		return fmt.Errorf("%w: Uhigh=%v Udegr=%v", ErrUDegr, q.UHigh, q.UDegr)
	}
	if !(q.MPercent > 0 && q.MPercent <= 100) {
		return fmt.Errorf("%w: MPercent=%v", ErrMPercent, q.MPercent)
	}
	if q.TDegr < 0 {
		return fmt.Errorf("%w: TDegr=%v", ErrTDegr, q.TDegr)
	}
	if q.MaxDegradedPerDay < 0 {
		return fmt.Errorf("%w: MaxDegradedPerDay=%d", ErrEpochBudget, q.MaxDegradedPerDay)
	}
	return nil
}

// String implements fmt.Stringer with the paper's vocabulary.
func (q AppQoS) String() string {
	s := fmt.Sprintf("U in (%.2f, %.2f], Mdegr=%.0f%% up to Udegr=%.2f",
		q.ULow, q.UHigh, q.MDegrPercent(), q.UDegr)
	if q.TDegr > 0 {
		s += fmt.Sprintf(", Tdegr=%s", q.TDegr)
	}
	if q.MaxDegradedPerDay > 0 {
		s += fmt.Sprintf(", <=%d degraded epochs/day", q.MaxDegradedPerDay)
	}
	return s
}

// MDegrPercent returns Mdegr = 100 - MPercent, the percentage of
// measurements allowed to run degraded.
func (q AppQoS) MDegrPercent() float64 { return 100 - q.MPercent }

// TDegrSlots returns R, the number of whole measurement slots covered by
// TDegr at the given interval, and whether a contiguous limit applies.
// A run of more than R consecutive degraded observations violates the
// requirement.
func (q AppQoS) TDegrSlots(interval time.Duration) (r int, limited bool) {
	if q.TDegr <= 0 || interval <= 0 {
		return 0, false
	}
	return int(q.TDegr / interval), true
}

// Requirement pairs the application QoS for normal operation with the
// (typically weaker) QoS accepted while a failed server is being
// repaired (paper section III).
type Requirement struct {
	Normal  AppQoS
	Failure AppQoS
}

// Validate checks both modes.
func (r Requirement) Validate() error {
	if err := r.Normal.Validate(); err != nil {
		return fmt.Errorf("normal mode: %w", err)
	}
	if err := r.Failure.Validate(); err != nil {
		return fmt.Errorf("failure mode: %w", err)
	}
	return nil
}

// PoolCommitment is the resource pool operator's resource access QoS
// commitment for CoS2 (paper section IV). CoS1 needs no parameters: it
// is guaranteed by construction.
type PoolCommitment struct {
	// Theta is the resource access probability θ: the probability that
	// a unit of CoS2 capacity is available for allocation when needed.
	Theta float64
	// Deadline is the time s within which demands not satisfied upon
	// request must be satisfied.
	Deadline time.Duration
}

// String implements fmt.Stringer.
func (c PoolCommitment) String() string {
	return fmt.Sprintf("CoS2 theta=%.2f, deadline %s", c.Theta, c.Deadline)
}

// Validate checks 0 < θ <= 1 and a non-negative deadline.
func (c PoolCommitment) Validate() error {
	if !(c.Theta > 0 && c.Theta <= 1) {
		return fmt.Errorf("%w: got %v", ErrTheta, c.Theta)
	}
	if c.Deadline < 0 {
		return fmt.Errorf("%w: got %v", ErrDeadline, c.Deadline)
	}
	return nil
}

// DeadlineSlots returns s expressed in whole measurement slots.
func (c PoolCommitment) DeadlineSlots(interval time.Duration) int {
	if interval <= 0 || c.Deadline <= 0 {
		return 0
	}
	return int(c.Deadline / interval)
}
