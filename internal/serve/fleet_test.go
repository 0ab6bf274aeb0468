package serve

import (
	"context"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"ropus/internal/faultinject"
	"ropus/internal/lease"
	"ropus/internal/telemetry"
)

// fleetManager builds a manager on a shared state dir with fast fleet
// timers, registering its metrics so tests can assert steal/adopt
// counters.
func fleetManager(t *testing.T, dir, instance string, mutate func(*Config)) (*Manager, *telemetry.Registry) {
	t.Helper()
	cfg := Config{
		StateDir:     dir,
		Instance:     instance,
		Workers:      1,
		ScanInterval: 50 * time.Millisecond,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	reg := telemetry.NewRegistry()
	m, err := NewManager(cfg, telemetry.New(reg, nil))
	if err != nil {
		t.Fatal(err)
	}
	return m, reg
}

// TestFleetPeerSeesRemoteCompletion: two instances share a state dir;
// a job submitted to (and run by) instance A becomes queryable on
// instance B — same state, same result hash, attributed to A.
func TestFleetPeerSeesRemoteCompletion(t *testing.T) {
	dir := t.TempDir()
	a, _ := fleetManager(t, dir, "alpha", nil)
	startManager(t, a)
	st, _, err := a.Submit(JobSpec{Kind: KindTranslate, TracesCSV: fleetCSV(t, 4, 1, 5)})
	if err != nil {
		t.Fatal(err)
	}
	want := waitState(t, a, st.ID, StateDone)
	if want.Instance != "alpha" {
		t.Errorf("completing instance %q, want alpha", want.Instance)
	}

	b, _ := fleetManager(t, dir, "beta", nil)
	startManager(t, b)
	waitFor(t, "peer to adopt the finished job", func() bool {
		got, ok := b.Job(st.ID)
		return ok && got.State == StateDone
	})
	got, _ := b.Job(st.ID)
	if got.ResultHash != want.ResultHash || string(got.Result) != string(want.Result) {
		t.Errorf("peer result diverged: %s vs %s", got.ResultHash, want.ResultHash)
	}
	if got.Instance != "alpha" {
		t.Errorf("peer attributes the job to %q, want alpha", got.Instance)
	}
}

// TestFleetPeerAdoptsQueuedJob: a job admitted by a stopped-scheduler
// instance (persisted spec, never dispatched, lease never taken) is
// picked up and completed by a peer — queue-level work sharing.
func TestFleetPeerAdoptsQueuedJob(t *testing.T) {
	dir := t.TempDir()
	a, _ := fleetManager(t, dir, "alpha", nil)
	b, breg := fleetManager(t, dir, "beta", nil)
	startManager(t, b)
	// a is never started: the spec lands on disk and stays queued until
	// b's scanner (not its initial recovery) adopts it.
	st, _, err := a.Submit(JobSpec{Kind: KindTranslate, TracesCSV: fleetCSV(t, 4, 1, 5)})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "peer to adopt the queued job", func() bool {
		_, ok := b.Job(st.ID)
		return ok
	})
	done := waitState(t, b, st.ID, StateDone)
	if done.Instance != "beta" || done.Stolen {
		t.Errorf("adopted job: instance=%q stolen=%v, want beta/false", done.Instance, done.Stolen)
	}
	if breg.Snapshot().Counters["serve_jobs_adopted_total"] == 0 {
		t.Error("adoption not counted")
	}
}

// TestFleetStealResumesByteIdentically is the tentpole scenario: alpha
// runs a slow failover sweep and journals checkpoints; beta — with a
// scripted lease.expire fault standing in for alpha's crash — steals
// the job mid-sweep, resumes from alpha's journal in a fresh lease
// epoch, and finishes with the result hash of an undisturbed run.
// Alpha's heartbeat observes the loss and cancels its now-ownerless
// run; alpha's scanner then adopts beta's result.
func TestFleetStealResumesByteIdentically(t *testing.T) {
	csv := fleetCSV(t, 6, 1, 7)
	spec := JobSpec{Kind: KindFailover, TracesCSV: csv}

	// Baseline hash from an undisturbed run on a private state dir.
	base := newTestManager(t, nil)
	startManager(t, base)
	baseSt, _, err := base.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := waitState(t, base, baseSt.ID, StateDone)

	dir := t.TempDir()
	a, areg := fleetManager(t, dir, "alpha", func(c *Config) {
		c.Inject = slowSweeps(250 * time.Millisecond)
		c.LeaseTTL = 300 * time.Millisecond // heartbeat every 100ms: fast loss detection
	})
	startManager(t, a)
	st, _, err := a.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "alpha to journal a checkpoint", func() bool {
		got, _ := a.Job(st.ID)
		return got.Progress["checkpoint_records_written_total"] >= 1
	})

	b, breg := fleetManager(t, dir, "beta", func(c *Config) {
		c.Inject = faultinject.MustScript(1,
			faultinject.Rule{Point: "lease.expire", Key: "job-" + st.ID})
	})
	startManager(t, b)

	stolen := waitState(t, b, st.ID, StateDone)
	if !stolen.Stolen {
		t.Error("thief's job not marked stolen")
	}
	if stolen.Instance != "beta" {
		t.Errorf("thief instance %q, want beta", stolen.Instance)
	}
	if stolen.ResultHash != want.ResultHash {
		t.Errorf("stolen-and-resumed hash %s != undisturbed %s", stolen.ResultHash, want.ResultHash)
	}
	if string(stolen.Result) != string(want.Result) {
		t.Error("stolen-and-resumed result bytes differ from undisturbed run")
	}
	if breg.Snapshot().Counters["serve_jobs_stolen_total"] == 0 {
		t.Error("steal not counted on the thief")
	}

	// The victim converges: its heartbeat loses the lease, and its
	// scanner folds the thief's result into the local table.
	waitFor(t, "alpha to adopt the thief's result", func() bool {
		got, _ := a.Job(st.ID)
		return got.State == StateDone
	})
	victim, _ := a.Job(st.ID)
	if victim.Instance != "beta" {
		t.Errorf("victim attributes the job to %q, want beta", victim.Instance)
	}
	if victim.ResultHash != want.ResultHash {
		t.Errorf("victim's adopted hash %s != undisturbed %s", victim.ResultHash, want.ResultHash)
	}
	if areg.Snapshot().Counters["serve_lease_lost_total"] == 0 {
		t.Error("lease loss not counted on the victim")
	}

	// Completion cleans up every epoch's journal and the lease file.
	waitFor(t, "checkpoint journals cleaned up", func() bool {
		matches, _ := filepath.Glob(filepath.Join(dir, "ckpt", st.ID+"*.ckpt"))
		return len(matches) == 0
	})
	waitFor(t, "job lease discarded", func() bool {
		// The victim's zombie Release cannot resurrect it either.
		_, status := b.leases.Read("job-" + st.ID)
		return status == lease.StatusAbsent
	})
}

// TestFleetReleasedLeaseReclaimedWithoutTTLWait: a drained instance
// releases its job leases as tombstones; a peer reclaims the job
// immediately (no TTL expiry wait) and completes it from the journal.
func TestFleetReleasedLeaseReclaimedWithoutTTLWait(t *testing.T) {
	csv := fleetCSV(t, 6, 1, 7)
	spec := JobSpec{Kind: KindFailover, TracesCSV: csv}

	base := newTestManager(t, nil)
	startManager(t, base)
	baseSt, _, err := base.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := waitState(t, base, baseSt.ID, StateDone)

	dir := t.TempDir()
	a, _ := fleetManager(t, dir, "alpha", func(c *Config) {
		c.Inject = slowSweeps(250 * time.Millisecond)
		// A long TTL: if reclamation waited for expiry the test would
		// time out, so passing proves the tombstone path.
		c.LeaseTTL = 5 * time.Minute
	})
	ctxStart := time.Now()
	ctx, cancel := context.WithCancel(context.Background())
	a.Start(ctx)
	stopA := func() { cancel(); a.Wait() }
	st, _, err := a.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "alpha to journal a checkpoint", func() bool {
		got, _ := a.Job(st.ID)
		return got.Progress["checkpoint_records_written_total"] >= 1
	})
	stopA() // drain: the lease is released as a tombstone

	b, _ := fleetManager(t, dir, "beta", nil)
	startManager(t, b)
	final := waitState(t, b, st.ID, StateDone)
	if final.Stolen {
		t.Error("tombstone takeover misreported as a steal")
	}
	if !final.Resumed {
		t.Error("reclaimed job not marked resumed")
	}
	if final.ResultHash != want.ResultHash || string(final.Result) != string(want.Result) {
		t.Errorf("reclaimed result diverged: %s vs %s", final.ResultHash, want.ResultHash)
	}
	if elapsed := time.Since(ctxStart); elapsed > 2*time.Minute {
		t.Errorf("takeover took %v: waited for TTL expiry instead of the tombstone", elapsed)
	}
}

// TestDispatchWindowNotParked (regression): a fleet-scanner sweep that
// lands while a dispatch is still claiming the job's lease must not take
// the job for parked and queue it a second time. The job runs once and
// ends done and unqueued, and a later dispatch leaves no lease behind.
func TestDispatchWindowNotParked(t *testing.T) {
	var hits atomic.Int32
	claiming := make(chan struct{})
	m := newTestManager(t, func(c *Config) {
		c.MaxConcurrent = 1
		c.Inject = faultinject.Func(func(point, _ string) faultinject.Outcome {
			if point == "lease.acquire" && hits.Add(1) == 1 {
				close(claiming)
				return faultinject.Outcome{Delay: 300 * time.Millisecond}
			}
			return faultinject.Outcome{}
		})
	})
	st, _, err := m.Submit(JobSpec{Kind: KindTranslate, TracesCSV: fleetCSV(t, 3, 1, 5), GASeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The manager is not started: the test is the scheduler and the
	// scanner, and sweeps while the first lease claim is delayed.
	m.ctx = context.Background()
	dispatched := make(chan bool)
	go func() { dispatched <- m.dispatchOne() }()
	<-claiming
	m.sweepParked()
	if !<-dispatched {
		t.Fatal("dispatch made no progress")
	}
	m.Wait()
	if got, _ := m.Job(st.ID); got.State != StateDone {
		t.Fatalf("job ended %s (%s), want done", got.State, got.Error)
	}
	m.mu.Lock()
	queued := m.queue.queued(st.ID)
	m.mu.Unlock()
	if queued {
		t.Fatal("the sweep queued the job a second time while its dispatch claimed the lease")
	}
	m.dispatchOne()
	m.Wait()
	entries, err := os.ReadDir(filepath.Join(m.cfg.StateDir, "leases"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("lease %s left behind for a finished job", e.Name())
	}
}
