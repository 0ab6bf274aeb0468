// Package resilience makes the planning pipeline self-healing: it
// retries transient failures of independent work units (failure
// scenarios, experiment cells, planner steps) under a deterministic
// backoff policy instead of recording them inconclusive on the first
// fault.
//
// The package distinguishes *transient* faults (worth retrying: an
// injected blip, a timed-out attempt) from *permanent* ones (retrying
// cannot help: invalid input, a repeated solver bug). Errors are
// classified by sentinel wrapping: MarkTransient chains
// ErrTransient into an error's Unwrap tree so Transient can recover
// the classification with errors.Is anywhere up the call stack.
// Unclassified errors default to permanent, which keeps every
// pre-existing fault script and degradation path behaving exactly as
// before a Policy is configured.
//
// Backoff is deterministic: the jittered delay for (key, attempt) is a
// pure function of the policy seed, so a retry schedule does not depend
// on worker count, scheduling order, or wall-clock state — the same
// property the rest of the repository demands of its sweeps.
//
// The package is stdlib-only (plus the repo's own telemetry seam).
package resilience

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ropus/internal/telemetry"
)

// ErrTransient is the classification sentinel: an error whose Unwrap
// tree contains it is worth retrying. Use MarkTransient to attach it.
var ErrTransient = errors.New("resilience: transient fault")

// marked chains ErrTransient into err's Unwrap tree without changing
// its message.
type marked struct{ err error }

func (m *marked) Error() string   { return m.err.Error() }
func (m *marked) Unwrap() []error { return []error{m.err, ErrTransient} }

// MarkTransient classifies err as transient (retry may help). The
// message is unchanged; errors.Is / errors.As still see the original
// chain, plus ErrTransient. Marking nil returns nil.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &marked{err: err}
}

// Transient reports whether err is classified transient. Context
// cancellation and deadline errors are never transient from the
// caller's point of view: Do handles per-attempt deadlines itself, and
// a cancelled parent must not be retried against.
func Transient(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) {
		return false
	}
	return errors.Is(err, ErrTransient)
}

// Policy bounds the retry behaviour for one class of work units. The
// zero value disables retries (one attempt, no deadline), so threading
// a Policy through existing configurations changes nothing until a
// caller opts in.
type Policy struct {
	// MaxAttempts is the total number of attempts per unit (first try
	// included). 0 and 1 both mean "no retries".
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; attempt n waits
	// BaseDelay * 2^(n-1), capped at MaxDelay. 0 retries immediately.
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff; 0 means uncapped.
	MaxDelay time.Duration
	// Jitter spreads each backoff uniformly over [1-Jitter, 1+Jitter]
	// times the nominal delay, drawn deterministically from Seed and the
	// unit key; must be in [0, 1]. 0 disables jitter.
	Jitter float64
	// Seed drives the deterministic jitter; the same (Seed, key,
	// attempt) always yields the same delay.
	Seed int64
	// AttemptTimeout bounds each attempt with a per-attempt context
	// deadline; 0 leaves attempts unbounded. Do retries an
	// attempt that outlived its own deadline, whatever it returned — a
	// deadline is transient by definition — but never one cancelled by
	// the parent context.
	AttemptTimeout time.Duration
	// Hooks receives retry telemetry (resilience_* counters); nil
	// disables it.
	Hooks telemetry.Hooks
}

// Production is the retry policy of the ropus and experiments commands:
// retries extra attempts per unit, each bounded by attemptTimeout (0 =
// none), with exponential backoff from 100ms capped at 2s and ±20%
// jitter. The seed is fixed: the jitter schedule must not depend on
// anything that varies between a run and its resume.
func Production(retries int, attemptTimeout time.Duration, h telemetry.Hooks) Policy {
	return Policy{
		MaxAttempts:    retries + 1,
		BaseDelay:      100 * time.Millisecond,
		MaxDelay:       2 * time.Second,
		Jitter:         0.2,
		Seed:           1,
		AttemptTimeout: attemptTimeout,
		Hooks:          h,
	}
}

// Validate checks the policy.
func (p Policy) Validate() error {
	if p.MaxAttempts < 0 {
		return fmt.Errorf("resilience: MaxAttempts %d < 0", p.MaxAttempts)
	}
	if p.BaseDelay < 0 {
		return fmt.Errorf("resilience: BaseDelay %v < 0", p.BaseDelay)
	}
	if p.MaxDelay < 0 {
		return fmt.Errorf("resilience: MaxDelay %v < 0", p.MaxDelay)
	}
	if p.Jitter < 0 || p.Jitter > 1 || p.Jitter != p.Jitter {
		return fmt.Errorf("resilience: Jitter %v outside [0,1]", p.Jitter)
	}
	if p.AttemptTimeout < 0 {
		return fmt.Errorf("resilience: AttemptTimeout %v < 0", p.AttemptTimeout)
	}
	return nil
}

// attempts normalizes MaxAttempts: the zero policy makes one attempt.
func (p Policy) attempts() int {
	if p.MaxAttempts < 2 {
		return 1
	}
	return p.MaxAttempts
}

// Backoff returns the deterministic delay before retry number attempt
// (1-based: attempt 1 is the delay between the first failure and the
// second try) of the unit identified by key.
func (p Policy) Backoff(attempt int, key string) time.Duration {
	if p.BaseDelay <= 0 || attempt < 1 {
		return 0
	}
	d := p.BaseDelay
	for i := 1; i < attempt; i++ {
		d *= 2
		if p.MaxDelay > 0 && d >= p.MaxDelay {
			d = p.MaxDelay
			break
		}
	}
	if p.MaxDelay > 0 && d > p.MaxDelay {
		d = p.MaxDelay
	}
	if p.Jitter > 0 {
		// A pure FNV-1a fold of (seed, key, attempt) mapped to [0, 1):
		// no shared RNG state, so the schedule is identical at every
		// worker count and interleaving.
		u := unit01(p.Seed, key, attempt)
		factor := 1 - p.Jitter + 2*p.Jitter*u
		d = time.Duration(float64(d) * factor)
	}
	if d < 0 {
		d = 0
	}
	return d
}

// unit01 deterministically maps (seed, key, attempt) to [0, 1).
func unit01(seed int64, key string, attempt int) float64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	fold := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime64
		}
	}
	fold(uint64(seed))
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	fold(uint64(int64(attempt)))
	// 53 bits of the hash make an exact float64 in [0, 1).
	return float64(h>>11) / (1 << 53)
}

// Stats reports what Do did for one unit.
type Stats struct {
	// Attempts is the number of attempts made (>= 1 whenever fn ran).
	Attempts int
	// Recovered reports a success after at least one failed attempt.
	Recovered bool
	// GaveUp reports a transient failure that exhausted MaxAttempts.
	// A permanent failure on the first attempt sets neither flag.
	GaveUp bool
}

// Do runs fn under the policy: fn is attempted up to MaxAttempts times,
// each attempt bounded by AttemptTimeout, with deterministic backoff
// between attempts. An attempt is retried when its error is transient
// (Transient) or when it returned after its own deadline expired while
// the parent context is still alive; permanent errors and parent
// cancellation return immediately. The returned error is the last
// attempt's.
//
// Do is the one place that distrusts an attempt outliving its deadline:
// such an attempt is a transient failure whatever it returned, because
// work under it (a search returning its best-so-far with a nil error)
// may have been cut short anywhere. fn receives the attempt context and
// need only honour it. A result returned after the parent is cancelled
// comes back as-is; the caller owns what cancellation means.
func Do[T any](ctx context.Context, p Policy, key string, fn func(ctx context.Context) (T, error)) (T, Stats, error) {
	h := telemetry.OrNop(p.Hooks)
	attemptsC := h.Counter("resilience_attempts_total")
	retriesC := h.Counter("resilience_retries_total")
	recoveredC := h.Counter("resilience_recovered_total")
	gaveUpC := h.Counter("resilience_giveups_total")

	var (
		last  T
		err   error
		stats Stats
	)
	max := p.attempts()
	for attempt := 1; attempt <= max; attempt++ {
		attemptCtx, cancel := ctx, context.CancelFunc(func() {})
		var deadline time.Time
		if p.AttemptTimeout > 0 {
			deadline = time.Now().Add(p.AttemptTimeout)
			attemptCtx, cancel = context.WithDeadline(ctx, deadline)
		}
		last, err = fn(attemptCtx)
		// Judged by the clock, not attemptCtx.Err(): a fast attempt can
		// return past its deadline before the context's timer fires.
		deadlined := p.AttemptTimeout > 0 && ctx.Err() == nil && !time.Now().Before(deadline)
		cancel()
		if deadlined && err == nil {
			err = MarkTransient(fmt.Errorf("resilience: attempt %d of %q outlived its %v deadline", attempt, key, p.AttemptTimeout))
		}
		stats.Attempts = attempt
		attemptsC.Inc()
		if err == nil {
			stats.Recovered = attempt > 1
			if stats.Recovered {
				recoveredC.Inc()
			}
			return last, stats, nil
		}
		if ctx.Err() != nil {
			// The parent is gone; whatever fn returned, stop here.
			return last, stats, err
		}
		if !Transient(err) && !deadlined {
			return last, stats, err // permanent: retrying cannot help
		}
		if attempt == max {
			stats.GaveUp = true
			gaveUpC.Inc()
			return last, stats, err
		}
		retriesC.Inc()
		if d := p.Backoff(attempt, key); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return last, stats, err
			}
		}
	}
	return last, stats, err
}
