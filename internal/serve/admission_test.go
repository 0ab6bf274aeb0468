package serve

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"ropus/internal/faultinject"
	"ropus/internal/telemetry"
)

// slowSweeps injects a per-scenario delay so failover jobs stay running
// long enough for admission tests to observe them. Delays do not change
// results.
func slowSweeps(delay time.Duration) faultinject.Injector {
	return faultinject.MustScript(1, faultinject.Rule{Point: "failure.scenario", Delay: delay})
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestAdmissionShedsWhenQueueFull: with one slow executor and a
// one-deep queue, a third distinct job is shed with a 429-shaped
// OverloadedError carrying a sane Retry-After, and the shed job is not
// admitted (no lost-vs-ghost ambiguity).
func TestAdmissionShedsWhenQueueFull(t *testing.T) {
	m := newTestManager(t, func(c *Config) {
		c.QueueDepth = 1
		c.MaxConcurrent = 1
		c.Inject = slowSweeps(300 * time.Millisecond)
	})
	startManager(t, m)

	csv := fleetCSV(t, 4, 1, 5)
	spec := func(seed int64) JobSpec {
		return JobSpec{Kind: KindFailover, TracesCSV: csv, GASeed: seed}
	}
	first, _, err := m.Submit(spec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first job running", func() bool {
		st, _ := m.Job(first.ID)
		return st.State == StateRunning
	})
	if _, _, err := m.Submit(spec(2)); err != nil {
		t.Fatalf("second job should queue: %v", err)
	}
	_, _, err = m.Submit(spec(3))
	var overloaded *OverloadedError
	if !errors.As(err, &overloaded) {
		t.Fatalf("third job: got %v, want OverloadedError", err)
	}
	if overloaded.RetryAfter < time.Second || overloaded.RetryAfter > time.Minute {
		t.Errorf("Retry-After %v outside [1s, 60s]", overloaded.RetryAfter)
	}
	if len(m.Jobs()) != 2 {
		t.Errorf("shed job leaked into the table: %d jobs", len(m.Jobs()))
	}
	// Resubmitting an already-admitted spec is never shed: idempotency
	// outranks admission.
	if _, created, err := m.Submit(spec(2)); err != nil || created {
		t.Errorf("dedup resubmission: created=%v err=%v", created, err)
	}
}

// TestRetryAfterGaugeExported: the EWMA-driven Retry-After estimate is
// published as the serve_retry_after_seconds gauge from construction
// on, stays inside the advertised [1s, 60s] clamp, and matches what a
// shed submission is told.
func TestRetryAfterGaugeExported(t *testing.T) {
	reg := telemetry.NewRegistry()
	m, err := NewManager(Config{
		StateDir:   t.TempDir(),
		QueueDepth: 1,
		Workers:    1,
	}, telemetry.New(reg, nil))
	if err != nil {
		t.Fatal(err)
	}
	gauge := func() float64 {
		v, ok := reg.Snapshot().Gauges["serve_retry_after_seconds"]
		if !ok {
			t.Fatal("serve_retry_after_seconds gauge not registered")
		}
		return v
	}
	if v := gauge(); v < 1 || v > 60 {
		t.Errorf("initial Retry-After gauge %v outside [1, 60]", v)
	}

	// Fill the queue (the manager is not started, so jobs stay queued)
	// and shed one; the error's estimate and the gauge must agree.
	csv := fleetCSV(t, 3, 1, 5)
	if _, _, err := m.Submit(JobSpec{Kind: KindTranslate, TracesCSV: csv, GASeed: 1}); err != nil {
		t.Fatal(err)
	}
	_, _, err = m.Submit(JobSpec{Kind: KindTranslate, TracesCSV: csv, GASeed: 2})
	var overloaded *OverloadedError
	if !errors.As(err, &overloaded) {
		t.Fatalf("second submit: got %v, want OverloadedError", err)
	}
	if got, want := gauge(), overloaded.RetryAfter.Seconds(); got != want {
		t.Errorf("gauge %v disagrees with shed Retry-After %v", got, want)
	}
}

// TestRetryAfterTracksInFlightElapsed (regression): the Retry-After
// estimate is recomputed at response time from live state. The EWMA
// only moves at job completions, so during a sustained burst of slow
// jobs it goes stale and under-advertises; the age of the longest
// in-flight job is a live lower bound on the true duration and must
// dominate the estimate once it exceeds the EWMA.
func TestRetryAfterTracksInFlightElapsed(t *testing.T) {
	m := newTestManager(t, func(c *Config) {
		c.QueueDepth = 1
		c.MaxConcurrent = 1
	})
	// Stale-EWMA scenario: completed jobs averaged ~1s, but the job
	// occupying the executor has already been running for 20s and has
	// completed nothing. The manager is not started, so the fake
	// in-flight job is entirely under test control.
	inFlight := &Job{ID: "in-flight", Kind: KindTranslate, Tenant: DefaultTenant}
	m.mu.Lock()
	m.avgSeconds = 1
	m.jobs[inFlight.ID] = inFlight
	m.queue.push(inFlight.Tenant, inFlight.ID, inFlight.Kind)
	if m.queue.next() != inFlight.ID {
		t.Fatal("in-flight job not dispatched")
	}
	inFlight.State, inFlight.Started = StateRunning, time.Now().Add(-20*time.Second)
	m.mu.Unlock()

	csv := fleetCSV(t, 3, 1, 5)
	if _, _, err := m.Submit(JobSpec{Kind: KindTranslate, TracesCSV: csv, GASeed: 1}); err != nil {
		t.Fatal(err)
	}

	_, _, err := m.Submit(JobSpec{Kind: KindTranslate, TracesCSV: csv, GASeed: 2})
	var overloaded *OverloadedError
	if !errors.As(err, &overloaded) {
		t.Fatalf("got %v, want OverloadedError", err)
	}
	// With the stale EWMA alone the estimate would be ~3s (1s x 3
	// waves); the 20s in-flight elapsed must pull it to >= 20s.
	if overloaded.RetryAfter < 20*time.Second {
		t.Errorf("Retry-After %v advertises the stale EWMA; want >= 20s from in-flight elapsed", overloaded.RetryAfter)
	}

	// And it keeps growing while the burst continues: the estimate is
	// recomputed per response, not cached at enqueue time.
	m.mu.Lock()
	inFlight.Started = time.Now().Add(-40 * time.Second)
	m.mu.Unlock()
	_, _, err = m.Submit(JobSpec{Kind: KindTranslate, TracesCSV: csv, GASeed: 3})
	if !errors.As(err, &overloaded) {
		t.Fatalf("got %v, want OverloadedError", err)
	}
	if overloaded.RetryAfter < 40*time.Second {
		t.Errorf("second shed Retry-After %v did not track the still-running job", overloaded.RetryAfter)
	}
}

// TestNewManagerRejectsUnknownClassLimit: a ClassLimits key that is not
// a job kind is a typo that would leave the kind it meant uncapped, so
// NewManager refuses it and names the kinds it accepts. Every kind is
// accepted.
func TestNewManagerRejectsUnknownClassLimit(t *testing.T) {
	for _, limits := range []map[string]int{
		{"failvoer": 1},
		{KindFailover: 2, "": 1},
		{KindPlan: 1, "Plan": 1},
	} {
		_, err := NewManager(Config{StateDir: t.TempDir(), ClassLimits: limits}, nil)
		if err == nil || !strings.Contains(err.Error(), "translate, place, failover, plan") {
			t.Errorf("ClassLimits %v: got %v, want an error naming the job kinds", limits, err)
		}
	}
	all := map[string]int{KindTranslate: 1, KindPlace: 1, KindFailover: 1, KindPlan: 1}
	if _, err := NewManager(Config{StateDir: t.TempDir(), ClassLimits: all}, nil); err != nil {
		t.Errorf("ClassLimits %v: %v", all, err)
	}
}

// TestClassLimitSchedulesAroundBusyClass: a saturated class must not
// starve other classes — a translate job overtakes queued failover work.
func TestClassLimitSchedulesAroundBusyClass(t *testing.T) {
	m := newTestManager(t, func(c *Config) {
		c.MaxConcurrent = 2
		c.ClassLimits = map[string]int{KindFailover: 1}
		c.Inject = slowSweeps(300 * time.Millisecond)
	})
	startManager(t, m)

	csv := fleetCSV(t, 4, 1, 5)
	fo1, _, err := m.Submit(JobSpec{Kind: KindFailover, TracesCSV: csv, GASeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first failover running", func() bool {
		st, _ := m.Job(fo1.ID)
		return st.State == StateRunning
	})
	fo2, _, err := m.Submit(JobSpec{Kind: KindFailover, TracesCSV: csv, GASeed: 2})
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := m.Submit(JobSpec{Kind: KindTranslate, TracesCSV: csv})
	if err != nil {
		t.Fatal(err)
	}
	// The translate job finishes while failover #2 is still class-blocked
	// behind #1.
	trSt := waitState(t, m, tr.ID, StateDone)
	fo2St, _ := m.Job(fo2.ID)
	if fo2St.State == StateDone && fo2St.Finished.Before(*trSt.Finished) {
		t.Error("class-blocked failover finished before the translate that should have overtaken it")
	}
	waitState(t, m, fo1.ID, StateDone)
	waitState(t, m, fo2.ID, StateDone)
}

// TestDrainStopsAdmission: after SetDraining every submission fails
// with ErrDraining, including previously unseen specs.
func TestDrainStopsAdmission(t *testing.T) {
	m := newTestManager(t, nil)
	csv := fleetCSV(t, 3, 1, 5)
	st, _, err := m.Submit(JobSpec{Kind: KindTranslate, TracesCSV: csv})
	if err != nil {
		t.Fatal(err)
	}
	m.SetDraining()
	if _, _, err := m.Submit(JobSpec{Kind: KindTranslate, TracesCSV: csv, GASeed: 9}); !errors.Is(err, ErrDraining) {
		t.Errorf("draining submit: got %v, want ErrDraining", err)
	}
	// Idempotent lookups of known jobs still answer during the drain.
	if got, created, err := m.Submit(JobSpec{Kind: KindTranslate, TracesCSV: csv}); err != nil || created || got.ID != st.ID {
		t.Errorf("draining dedup: id=%s created=%v err=%v", got.ID, created, err)
	}
}

// TestDrainMarksInterrupted: cancelling the manager context mid-sweep
// marks the running job interrupted without persisting a result, and a
// manager recovered from the same state dir re-queues it and finishes
// with the same result hash as an undisturbed run.
func TestDrainMarksInterrupted(t *testing.T) {
	dir := t.TempDir()
	csv := fleetCSV(t, 6, 1, 7)
	spec := JobSpec{Kind: KindFailover, TracesCSV: csv}

	// Baseline on its own state dir: the uninterrupted result hash.
	base := newTestManager(t, nil)
	startManager(t, base)
	baseSt, _, err := base.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := waitState(t, base, baseSt.ID, StateDone)

	// Interrupted run: slow sweeps, cancel once the first scenario has
	// been journaled.
	m1, err := NewManager(Config{StateDir: dir, Workers: 1, Inject: slowSweeps(250 * time.Millisecond)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	m1.Start(ctx)
	st, _, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != baseSt.ID {
		t.Fatalf("same spec hashed differently across managers: %s vs %s", st.ID, baseSt.ID)
	}
	waitFor(t, "first checkpoint record", func() bool {
		got, _ := m1.Job(st.ID)
		return got.Progress["checkpoint_records_written_total"] >= 1
	})
	cancel()
	m1.Wait()
	interrupted, _ := m1.Job(st.ID)
	if interrupted.State != StateInterrupted && interrupted.State != StateDone {
		t.Fatalf("after drain: state %q", interrupted.State)
	}

	// Restart on the same state dir: the job is re-queued (Resumed) and
	// completes byte-identically.
	m2, err := NewManager(Config{StateDir: dir, Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	startManager(t, m2)
	recovered, ok := m2.Job(st.ID)
	if !ok {
		t.Fatal("job lost across restart")
	}
	if interrupted.State == StateInterrupted && !recovered.Resumed {
		t.Error("interrupted job not marked Resumed after recovery")
	}
	final := waitState(t, m2, st.ID, StateDone)
	if final.ResultHash != want.ResultHash {
		t.Errorf("resumed result hash %s differs from uninterrupted %s", final.ResultHash, want.ResultHash)
	}
	if string(final.Result) != string(want.Result) {
		t.Error("resumed result bytes differ from uninterrupted run")
	}
}
