package failure

import (
	"bytes"
	"context"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"ropus/internal/checkpoint"
	"ropus/internal/faultinject"
	"ropus/internal/resilience"
	"ropus/internal/telemetry"
)

// retryPolicy is a fast deterministic policy for the self-healing tests.
func retryPolicy() resilience.Policy {
	return resilience.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, Seed: 1}
}

// TestAnalyzeRetryRecoversTransient is the acceptance criterion: a
// transient injected fault recovered by a retry yields the same verdict
// as a fault-free run.
func TestAnalyzeRetryRecoversTransient(t *testing.T) {
	ctx := context.Background()
	cleanIn, base, err := sweepInput(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Analyze(ctx, cleanIn, base)
	if err != nil {
		t.Fatal(err)
	}

	in, base, err := sweepInput(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	in.Retry = retryPolicy()
	in.Inject = faultinject.MustScript(1,
		faultinject.Rule{Point: "failure.scenario", Key: "srv-b", Nth: 1, Transient: true})
	report, err := Analyze(ctx, in, base)
	if err != nil {
		t.Fatal(err)
	}
	if report.SpareNeeded != clean.SpareNeeded {
		t.Errorf("SpareNeeded = %v after recovery, want %v (the fault-free verdict)",
			report.SpareNeeded, clean.SpareNeeded)
	}
	for i, sc := range report.Scenarios {
		want := clean.Scenarios[i]
		if sc.Err != nil {
			t.Errorf("scenario %s still errored after retry: %v", sc.FailedServer, sc.Err)
		}
		if sc.Feasible != want.Feasible {
			t.Errorf("scenario %s: Feasible = %v, want fault-free %v", sc.FailedServer, sc.Feasible, want.Feasible)
		}
		if sc.FailedServer == "srv-b" {
			if !sc.Recovered || sc.Attempts != 2 {
				t.Errorf("srv-b: Recovered=%v Attempts=%d, want a recovery on attempt 2", sc.Recovered, sc.Attempts)
			}
		} else if sc.Recovered || sc.Attempts != 1 {
			t.Errorf("%s: Recovered=%v Attempts=%d, want a clean first attempt", sc.FailedServer, sc.Recovered, sc.Attempts)
		}
	}
	if extra, recovered, gaveUp := report.Retries(); extra != 1 || recovered != 1 || gaveUp != 0 {
		t.Errorf("Retries() = (%d, %d, %d), want (1, 1, 0)", extra, recovered, gaveUp)
	}
}

// TestAnalyzeRetryGivesUpOnPersistentTransient: a fault that fires on
// every attempt exhausts the policy and the scenario stays inconclusive.
func TestAnalyzeRetryGivesUpOnPersistentTransient(t *testing.T) {
	in, base, err := sweepInput(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	in.Retry = retryPolicy()
	in.Inject = faultinject.MustScript(1,
		faultinject.Rule{Point: "failure.scenario", Key: "srv-b", Transient: true})
	report, err := Analyze(context.Background(), in, base)
	if err != nil {
		t.Fatal(err)
	}
	var srvB *Scenario
	for i := range report.Scenarios {
		if report.Scenarios[i].FailedServer == "srv-b" {
			srvB = &report.Scenarios[i]
		}
	}
	if srvB == nil || srvB.Err == nil {
		t.Fatal("srv-b should be recorded inconclusive")
	}
	if srvB.Attempts != 3 || srvB.Recovered {
		t.Errorf("srv-b: Attempts=%d Recovered=%v, want 3 exhausted attempts", srvB.Attempts, srvB.Recovered)
	}
	if report.SpareNeeded {
		t.Error("an inconclusive scenario must not set SpareNeeded")
	}
	if _, _, gaveUp := report.Retries(); gaveUp != 1 {
		t.Errorf("Retries() gaveUp = %d, want 1", gaveUp)
	}
}

// TestAnalyzePermanentFaultNotRetried: the permanent default keeps the
// historical single-attempt behaviour even with a retry policy set.
func TestAnalyzePermanentFaultNotRetried(t *testing.T) {
	in, base, err := sweepInput(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	in.Retry = retryPolicy()
	in.Inject = faultinject.MustScript(1,
		faultinject.Rule{Point: "failure.scenario", Key: "srv-b"}) // permanent by default
	report, err := Analyze(context.Background(), in, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range report.Scenarios {
		if sc.FailedServer == "srv-b" {
			if sc.Err == nil {
				t.Error("permanent fault should leave srv-b inconclusive")
			}
			if sc.Attempts != 1 {
				t.Errorf("permanent fault retried: Attempts = %d, want 1", sc.Attempts)
			}
		}
	}
}

// TestAnalyzeJournalResume interrupts a checkpointed sweep mid-run and
// resumes it: the resumed report must be byte-identical to an
// uninterrupted, journal-free baseline, at every worker count.
func TestAnalyzeJournalResume(t *testing.T) {
	ctx := context.Background()
	baseIn, base, err := sweepInput(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := Analyze(ctx, baseIn, base)
	if err != nil {
		t.Fatal(err)
	}
	want := reportJSON(t, baseline)

	for _, workers := range []int{1, 8} {
		path := filepath.Join(t.TempDir(), "sweep.ckpt")
		const run = uint64(0x5eed)

		// First pass: cancel after the first scenario completes. The
		// journal keeps whatever scenarios finished cleanly before that.
		j, err := checkpoint.Open(path, run, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		cctx, cancel := context.WithCancel(ctx)
		in, basePlan, err := sweepInput(workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		in.Journal = j
		var fired atomic.Int32
		in.Inject = faultinject.Func(func(point, key string) faultinject.Outcome {
			if point == "failure.scenario" && fired.Add(1) == 2 {
				cancel()
			}
			return faultinject.Outcome{}
		})
		if _, err := Analyze(cctx, in, basePlan); err != nil {
			t.Fatalf("workers=%d: interrupted sweep should degrade: %v", workers, err)
		}
		cancel()
		j.Close()

		// Resume: replay the journal, compute the rest.
		reg := telemetry.NewRegistry()
		j2, err := checkpoint.Open(path, run, true, telemetry.New(reg, nil))
		if err != nil {
			t.Fatal(err)
		}
		in2, basePlan2, err := sweepInput(workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		in2.Journal = j2
		in2.Hooks = telemetry.New(reg, nil)
		resumed, err := Analyze(ctx, in2, basePlan2)
		if err != nil {
			t.Fatalf("workers=%d: resumed sweep: %v", workers, err)
		}
		j2.Close()
		if got := reportJSON(t, resumed); !bytes.Equal(got, want) {
			t.Errorf("workers=%d: resumed report differs from the uninterrupted baseline", workers)
		}
		if j2.Replayed() > 0 &&
			reg.Snapshot().Counters["failure_scenarios_replayed_total"] != int64(j2.Replayed()) {
			t.Errorf("workers=%d: replay counter %d does not match journal's %d", workers,
				reg.Snapshot().Counters["failure_scenarios_replayed_total"], j2.Replayed())
		}
	}
}

// TestAnalyzeJournalFullReplay: resuming a journal that already holds
// every scenario recomputes nothing and still reports identically.
func TestAnalyzeJournalFullReplay(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	const run = uint64(99)

	j, err := checkpoint.Open(path, run, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	in, base, err := sweepInput(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	in.Journal = j
	first, err := Analyze(ctx, in, base)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, err := checkpoint.Open(path, run, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	in2, base2, err := sweepInput(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	in2.Journal = j2
	// A poisoned injector proves no scenario is recomputed on full replay.
	in2.Inject = faultinject.Func(func(point, key string) faultinject.Outcome {
		t.Errorf("scenario %q recomputed despite a complete journal", key)
		return faultinject.Outcome{}
	})
	again, err := Analyze(ctx, in2, base2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportJSON(t, first), reportJSON(t, again)) {
		t.Error("full replay drifted from the original report")
	}
}

// TestAnalyzeMultiJournalResume mirrors the resume contract for the
// k-failure sweep.
func TestAnalyzeMultiJournalResume(t *testing.T) {
	ctx := context.Background()
	baseIn, base, err := sweepInput(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := AnalyzeMulti(ctx, baseIn, base, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := reportJSON(t, baseline)

	for _, workers := range []int{1, 8} {
		path := filepath.Join(t.TempDir(), "multi.ckpt")
		const run = uint64(0xabc)
		j, err := checkpoint.Open(path, run, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		cctx, cancel := context.WithCancel(ctx)
		in, basePlan, err := sweepInput(workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		in.Journal = j
		var fired atomic.Int32
		in.Inject = faultinject.Func(func(point, key string) faultinject.Outcome {
			if point == "failure.scenario" && fired.Add(1) == 2 {
				cancel()
			}
			return faultinject.Outcome{}
		})
		if _, err := AnalyzeMulti(cctx, in, basePlan, 2); err != nil {
			t.Fatalf("workers=%d: interrupted sweep should degrade: %v", workers, err)
		}
		cancel()
		j.Close()

		j2, err := checkpoint.Open(path, run, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		in2, basePlan2, err := sweepInput(workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		in2.Journal = j2
		resumed, err := AnalyzeMulti(ctx, in2, basePlan2, 2)
		if err != nil {
			t.Fatalf("workers=%d: resumed sweep: %v", workers, err)
		}
		j2.Close()
		if got := reportJSON(t, resumed); !bytes.Equal(got, want) {
			t.Errorf("workers=%d: resumed multi report differs from the baseline", workers)
		}
	}
}

// TestAnalyzeAttemptDeadlineRetries: an attempt cut short by its own
// deadline is retried rather than silently accepted as a partial plan.
func TestAnalyzeAttemptDeadlineRetries(t *testing.T) {
	in, base, err := sweepInput(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The first attempt for srv-a is forced over its deadline by an
	// injected delay twice as long, which the deadline cuts; the second
	// attempt runs clean. The deadline sits well above an undisturbed
	// race-instrumented scenario (≈20–40 ms on a 2-core host), so only
	// the injected delay can outlive it.
	const deadline = 250 * time.Millisecond
	in.Retry = resilience.Policy{MaxAttempts: 2, AttemptTimeout: deadline}
	in.Inject = faultinject.MustScript(1,
		faultinject.Rule{Point: "failure.scenario", Key: "srv-a", Nth: 1, Delay: 2 * deadline})
	report, err := Analyze(context.Background(), in, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range report.Scenarios {
		if sc.FailedServer != "srv-a" {
			continue
		}
		if sc.Err != nil {
			t.Fatalf("srv-a should recover on the second attempt, got %v", sc.Err)
		}
		if sc.Attempts != 2 || !sc.Recovered {
			t.Errorf("srv-a: Attempts=%d Recovered=%v, want a deadline-retry recovery", sc.Attempts, sc.Recovered)
		}
	}
}
