package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"ropus/internal/checkpoint"
)

// captureStdout runs fn with os.Stdout redirected to a buffer.
func captureStdout(t *testing.T, fn func() error) ([]byte, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = orig }()
	done := make(chan []byte)
	go func() {
		data, _ := io.ReadAll(r)
		done <- data
	}()
	ferr := fn()
	w.Close()
	out := <-done
	return out, ferr
}

// TestCmdFailoverCheckpointResume: a journaled failover run resumed from
// its own checkpoint must print a byte-identical report.
func TestCmdFailoverCheckpointResume(t *testing.T) {
	path := writeFleet(t)
	ckpt := filepath.Join(t.TempDir(), "failover.ckpt")

	want, err := captureStdout(t, func() error {
		return run([]string{"failover", "-traces", path, "-json", "-checkpoint", ckpt})
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := captureStdout(t, func() error {
		return run([]string{"failover", "-traces", path, "-json",
			"-checkpoint", ckpt, "-resume", "-workers", "1"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("resumed report differs from original:\n--- original\n%s\n--- resumed\n%s", want, got)
	}
}

// failoverRunHash is the run hash of a default-flag failover journal
// over writeFleet's traces. It is pinned so that deleting or adding a
// flag cannot silently orphan journals recorded by earlier builds.
const failoverRunHash = 0x1ab4a62f9a061b2c

// TestCmdFailoverRunHashPinned: a default-flag failover journal still
// carries the pinned run hash, so it resumes under this build.
func TestCmdFailoverRunHashPinned(t *testing.T) {
	path := writeFleet(t)
	ckpt := filepath.Join(t.TempDir(), "failover.ckpt")
	if _, err := captureStdout(t, func() error {
		return run([]string{"failover", "-traces", path, "-json", "-checkpoint", ckpt})
	}); err != nil {
		t.Fatal(err)
	}
	j, err := checkpoint.Open(ckpt, failoverRunHash, true, nil)
	if err != nil {
		t.Fatalf("journal does not carry the pinned run hash %016x: %v", uint64(failoverRunHash), err)
	}
	j.Close()
}

// TestCmdFailoverResumeRequiresCheckpoint: -resume without -checkpoint
// is a usage error, not a silent no-op.
func TestCmdFailoverResumeRequiresCheckpoint(t *testing.T) {
	path := writeFleet(t)
	if err := run([]string{"failover", "-traces", path, "-resume"}); err == nil {
		t.Error("-resume without -checkpoint accepted")
	}
}

// TestCmdFailoverResumeRejectsOtherRun: resuming a journal recorded
// with different result-determining flags must fail with ErrRunMismatch
// instead of splicing foreign results into the report.
func TestCmdFailoverResumeRejectsOtherRun(t *testing.T) {
	path := writeFleet(t)
	ckpt := filepath.Join(t.TempDir(), "failover.ckpt")
	if _, err := captureStdout(t, func() error {
		return run([]string{"failover", "-traces", path, "-json", "-checkpoint", ckpt})
	}); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"failover", "-traces", path, "-json",
		"-checkpoint", ckpt, "-resume", "-theta", "0.9"})
	if !errors.Is(err, checkpoint.ErrRunMismatch) {
		t.Errorf("resume with different theta: got %v, want ErrRunMismatch", err)
	}
}

// TestCmdPlanCheckpointResume: same byte-identity contract for the
// planner subcommand.
func TestCmdPlanCheckpointResume(t *testing.T) {
	path := writeFleetWeeks(t, 3)
	ckpt := filepath.Join(t.TempDir(), "plan.ckpt")
	args := []string{"plan", "-traces", path, "-horizon-weeks", "2",
		"-step-weeks", "1", "-checkpoint", ckpt}

	want, err := captureStdout(t, func() error { return run(args) })
	if err != nil {
		t.Fatal(err)
	}
	got, err := captureStdout(t, func() error { return run(append(args, "-resume")) })
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("resumed plan differs from original:\n--- original\n%s\n--- resumed\n%s", want, got)
	}
}

// TestCmdPlanInterruptedResume: a plan run cut off by -timeout journals
// the steps it completed; resuming that journal must produce output
// byte-identical to an undisturbed run, whatever prefix made it into
// the journal before the cancellation landed.
func TestCmdPlanInterruptedResume(t *testing.T) {
	path := writeFleetWeeks(t, 3)
	ckpt := filepath.Join(t.TempDir(), "plan.ckpt")
	planArgs := func(extra ...string) []string {
		return append([]string{"plan", "-traces", path, "-json",
			"-horizon-weeks", "2", "-step-weeks", "1"}, extra...)
	}

	want, err := captureStdout(t, func() error { return run(planArgs()) })
	if err != nil {
		t.Fatal(err)
	}

	// A run cancelled before it can start exits non-zero and leaves an
	// empty (but valid) journal.
	if _, err := captureStdout(t, func() error {
		return run(planArgs("-checkpoint", ckpt, "-timeout", "1ns"))
	}); err == nil {
		t.Fatal("timed-out plan run must exit non-zero")
	}

	// A second attempt races a short deadline mid-run: depending on the
	// machine it journals a partial prefix or completes. Both are legal
	// journal states — the resume contract must hold for any prefix, so
	// its exit status is deliberately not asserted.
	captureStdout(t, func() error {
		return run(planArgs("-checkpoint", ckpt, "-resume", "-timeout", "3ms"))
	})

	got, err := captureStdout(t, func() error {
		return run(planArgs("-checkpoint", ckpt, "-resume"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("resumed interrupted plan differs from undisturbed run:\n--- undisturbed\n%s\n--- resumed\n%s", want, got)
	}
}

// TestCmdResumeRejectsCrossCommandJournal: a journal recorded by one
// subcommand must not resume another — the run-hash prefix differs, so
// the checkpoint layer rejects it instead of splicing foreign units.
func TestCmdResumeRejectsCrossCommandJournal(t *testing.T) {
	path := writeFleetWeeks(t, 3)
	ckpt := filepath.Join(t.TempDir(), "shared.ckpt")
	if _, err := captureStdout(t, func() error {
		return run([]string{"plan", "-traces", path, "-horizon-weeks", "2",
			"-step-weeks", "1", "-checkpoint", ckpt})
	}); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"failover", "-traces", path, "-json",
		"-checkpoint", ckpt, "-resume"})
	if !errors.Is(err, checkpoint.ErrRunMismatch) {
		t.Errorf("failover resume of a plan journal: got %v, want ErrRunMismatch", err)
	}
}
