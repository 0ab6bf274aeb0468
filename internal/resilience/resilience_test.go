package resilience

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"ropus/internal/telemetry"
)

func TestMarkTransient(t *testing.T) {
	base := errors.New("boom")
	if Transient(base) {
		t.Error("unclassified error must default to permanent")
	}
	m := MarkTransient(base)
	if !Transient(m) {
		t.Error("marked error must be transient")
	}
	if !errors.Is(m, base) {
		t.Error("marking must preserve the original chain")
	}
	if !errors.Is(m, ErrTransient) {
		t.Error("marked error must match ErrTransient with errors.Is")
	}
	if m.Error() != "boom" {
		t.Errorf("marking changed the message: %q", m.Error())
	}
	wrapped := fmt.Errorf("outer: %w", m)
	if !Transient(wrapped) {
		t.Error("classification must survive further wrapping")
	}
	if MarkTransient(nil) != nil {
		t.Error("MarkTransient(nil) must be nil")
	}
	if Transient(context.Canceled) || Transient(MarkTransient(context.Canceled)) {
		t.Error("cancellation is never transient")
	}
}

func TestPolicyValidate(t *testing.T) {
	good := Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, Jitter: 0.5}
	if err := good.Validate(); err != nil {
		t.Fatalf("good policy rejected: %v", err)
	}
	bad := []Policy{
		{MaxAttempts: -1},
		{BaseDelay: -time.Second},
		{MaxDelay: -1},
		{Jitter: 1.5},
		{Jitter: -0.1},
		{AttemptTimeout: -time.Second},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad policy %d accepted", i)
		}
	}
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	p := Policy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond,
		MaxDelay: 40 * time.Millisecond, Jitter: 0.5, Seed: 7}
	for attempt := 1; attempt <= 4; attempt++ {
		a := p.Backoff(attempt, "srv-01")
		b := p.Backoff(attempt, "srv-01")
		if a != b {
			t.Fatalf("attempt %d: backoff not deterministic: %v vs %v", attempt, a, b)
		}
		nominal := p.BaseDelay << (attempt - 1)
		if nominal > p.MaxDelay {
			nominal = p.MaxDelay
		}
		lo := time.Duration(float64(nominal) * 0.5)
		hi := time.Duration(float64(nominal) * 1.5)
		if a < lo || a > hi {
			t.Errorf("attempt %d: backoff %v outside [%v, %v]", attempt, a, lo, hi)
		}
	}
	if p.Backoff(1, "srv-01") == p.Backoff(1, "srv-02") {
		t.Log("two keys drew identical jitter (possible but unlikely)")
	}
	if (Policy{}).Backoff(1, "k") != 0 {
		t.Error("zero policy must not back off")
	}
}

func TestDoRetriesTransientOnly(t *testing.T) {
	p := Policy{MaxAttempts: 3}
	transient := MarkTransient(errors.New("flaky"))

	calls := 0
	v, stats, err := Do(context.Background(), p, "k", func(context.Context) (int, error) {
		calls++
		if calls < 3 {
			return 0, transient
		}
		return 42, nil
	})
	if err != nil || v != 42 {
		t.Fatalf("Do = (%v, %v), want (42, nil)", v, err)
	}
	if calls != 3 || stats.Attempts != 3 || !stats.Recovered || stats.GaveUp {
		t.Errorf("stats = %+v after %d calls, want 3 attempts recovered", stats, calls)
	}

	calls = 0
	perm := errors.New("permanent")
	_, stats, err = Do(context.Background(), p, "k", func(context.Context) (int, error) {
		calls++
		return 0, perm
	})
	if calls != 1 || !errors.Is(err, perm) {
		t.Errorf("permanent error retried: %d calls, err %v", calls, err)
	}
	if stats.Recovered || stats.GaveUp {
		t.Errorf("first-attempt permanent failure must set neither flag: %+v", stats)
	}

	calls = 0
	_, stats, err = Do(context.Background(), p, "k", func(context.Context) (int, error) {
		calls++
		return 0, transient
	})
	if calls != 3 || !stats.GaveUp || stats.Recovered {
		t.Errorf("exhausted policy: %d calls, stats %+v", calls, stats)
	}
	if !Transient(err) {
		t.Error("give-up must surface the transient error")
	}
}

func TestDoZeroPolicySingleAttempt(t *testing.T) {
	calls := 0
	_, stats, err := Do(context.Background(), Policy{}, "k", func(context.Context) (int, error) {
		calls++
		return 0, MarkTransient(errors.New("flaky"))
	})
	if calls != 1 || err == nil {
		t.Errorf("zero policy must make exactly one attempt, made %d", calls)
	}
	if stats.Attempts != 1 || !stats.GaveUp {
		t.Errorf("stats = %+v", stats)
	}
}

func TestDoParentCancellationStopsRetries(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := Policy{MaxAttempts: 10, BaseDelay: time.Millisecond}
	calls := 0
	_, stats, err := Do(ctx, p, "k", func(context.Context) (int, error) {
		calls++
		if calls == 2 {
			cancel()
		}
		return 0, MarkTransient(errors.New("flaky"))
	})
	if calls != 2 {
		t.Errorf("expected the cancel to stop retries after 2 calls, made %d", calls)
	}
	if err == nil || stats.GaveUp {
		t.Errorf("cancelled run: err %v, stats %+v", err, stats)
	}
}

func TestDoAttemptDeadlineIsRetried(t *testing.T) {
	p := Policy{MaxAttempts: 2, AttemptTimeout: 5 * time.Millisecond}
	calls := 0
	v, stats, err := Do(context.Background(), p, "k", func(ctx context.Context) (string, error) {
		calls++
		if calls == 1 {
			<-ctx.Done() // burn the attempt deadline
			return "", fmt.Errorf("cut short: %w", ctx.Err())
		}
		return "ok", nil
	})
	if err != nil || v != "ok" {
		t.Fatalf("Do = (%q, %v), want recovered success", v, err)
	}
	if calls != 2 || !stats.Recovered {
		t.Errorf("deadline-expired attempt not retried: calls %d, stats %+v", calls, stats)
	}
}

func TestDoCountersRecorded(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := Policy{MaxAttempts: 3, Hooks: telemetry.New(reg, nil)}
	calls := 0
	_, _, err := Do(context.Background(), p, "k", func(context.Context) (int, error) {
		calls++
		if calls < 2 {
			return 0, MarkTransient(errors.New("flaky"))
		}
		return 1, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	want := map[string]int64{
		"resilience_attempts_total":  2,
		"resilience_retries_total":   1,
		"resilience_recovered_total": 1,
	}
	for name, v := range want {
		if got := snap.Counters[name]; got != v {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
}

// TestAttemptDeadlineLateSuccessRetried: a success returned after the
// attempt's own deadline is distrusted and retried — a fast second
// attempt recovers — and when every attempt is late the unit gives up
// with a transient error and the last attempt's value.
func TestAttemptDeadlineLateSuccessRetried(t *testing.T) {
	p := Policy{MaxAttempts: 2, AttemptTimeout: 5 * time.Millisecond}
	late := func(ctx context.Context) (string, error) {
		<-ctx.Done() // a search that returns its best-so-far, no error
		return "partial", nil
	}
	calls := 0
	v, stats, err := Do(context.Background(), p, "k", func(ctx context.Context) (string, error) {
		if calls++; calls == 1 {
			return late(ctx)
		}
		return "whole", nil
	})
	if err != nil || v != "whole" || calls != 2 || !stats.Recovered {
		t.Errorf("late success: Do = (%q, %+v, %v) after %d calls, want a recovered second attempt", v, stats, err, calls)
	}

	v, stats, err = Do(context.Background(), p, "k", late)
	if !Transient(err) || v != "partial" || stats.Attempts != 2 || !stats.GaveUp {
		t.Errorf("every attempt late: Do = (%q, %+v, %v), want a transient give-up after 2 attempts", v, stats, err)
	}
}

// TestAttemptDeadlineParentCancelledReturnsAsIs: a success returned
// after the parent is cancelled is the caller's to judge, so Do hands
// it back unretried even though the attempt context ended too.
func TestAttemptDeadlineParentCancelledReturnsAsIs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := Policy{MaxAttempts: 3, AttemptTimeout: time.Minute}
	calls := 0
	v, stats, err := Do(ctx, p, "k", func(actx context.Context) (string, error) {
		calls++
		cancel()
		<-actx.Done()
		return "best-so-far", nil
	})
	if err != nil || v != "best-so-far" || calls != 1 || stats.Attempts != 1 || stats.Recovered || stats.GaveUp {
		t.Errorf("Do = (%q, %+v, %v) after %d calls, want the result as-is", v, stats, err, calls)
	}
}
