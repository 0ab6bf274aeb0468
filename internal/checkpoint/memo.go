package checkpoint

import (
	"context"

	"ropus/internal/resilience"
	"ropus/internal/telemetry"
)

// Cell holds what every unit of one journaled sweep shares.
type Cell struct {
	// Journal replays and records the sweep's units; nil disables both.
	Journal *Journal
	// Unit is the journal unit name the sweep's records are filed under.
	Unit string
	// Retry re-attempts a unit that failed transiently. It reports
	// through Hooks unless it carries its own.
	Retry resilience.Policy
	// Hooks receives the Replays counter and
	// checkpoint_append_errors_total; nil disables them.
	Hooks telemetry.Hooks
	// Replays names the counter incremented per replayed unit.
	Replays string
}

// Memo is the one lookup → retry → append cell of every journaled
// sweep: a unit the journal already holds is replayed (bit-exact, no
// attempt made); otherwise attempt runs under the cell's retry policy,
// with id keying the fault-free backoff jitter, and a clean result is
// journaled before Memo returns. Only verdicts an uninterrupted run
// would also produce are journaled: not an errored unit (a resumed run
// re-attempts it) and not one computed while ctx was being cancelled
// (its search may have been cut short). resilience.Do already turns an
// attempt that outlived its own deadline into an error, so between the
// two no truncated result reaches the journal. A failed append is
// counted and otherwise ignored — a lost checkpoint only costs
// recompute on the next resume; an unreadable record is recomputed the
// same way.
//
// Ordering, fail-fast and truncation stay with the caller. Stats are
// zero for a replayed unit; on error the value is attempt's last.
func Memo[T any](ctx context.Context, c Cell, key uint64, id string,
	attempt func(context.Context) (T, error)) (v T, stats resilience.Stats, replayed bool, err error) {
	h := telemetry.OrNop(c.Hooks)
	var cached T
	if ok, lerr := c.Journal.Lookup(c.Unit, key, &cached); lerr == nil && ok {
		h.Counter(c.Replays).Inc()
		return cached, stats, true, nil
	}
	retry := c.Retry
	if retry.Hooks == nil {
		retry.Hooks = c.Hooks
	}
	v, stats, err = resilience.Do(ctx, retry, id, attempt)
	if err == nil && ctx.Err() == nil {
		if aerr := c.Journal.Append(c.Unit, key, v); aerr != nil {
			h.Counter("checkpoint_append_errors_total").Inc()
		}
	}
	return v, stats, false, err
}
