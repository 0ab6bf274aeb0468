package checkpoint

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"ropus/internal/resilience"
	"ropus/internal/telemetry"
)

// TestMemo walks the cell's rules in one journal: what is journaled,
// what is replayed, and what each counter sees.
func TestMemo(t *testing.T) {
	path := filepath.Join(t.TempDir(), "memo.ckpt")
	reg := telemetry.NewRegistry()
	open := func(resume bool) Cell {
		j, err := Open(path, 1, resume, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { j.Close() })
		return Cell{
			Journal: j,
			Unit:    "test.unit",
			Retry:   resilience.Policy{MaxAttempts: 3, BaseDelay: time.Microsecond},
			Hooks:   telemetry.New(reg, nil),
			Replays: "test_replayed_total",
		}
	}
	ctx := context.Background()
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	boom := errors.New("boom")
	calls := 0
	value := func(v int, err error) func(context.Context) (int, error) {
		return func(context.Context) (int, error) { calls++; return v, err }
	}
	flaky := func(context.Context) (int, error) {
		if calls++; calls == 1 {
			return 0, resilience.MarkTransient(boom)
		}
		return 7, nil
	}

	cell := open(false)
	for _, tc := range []struct {
		name      string
		ctx       context.Context
		key       uint64
		attempt   func(context.Context) (int, error)
		want      int
		wantErr   error
		wantCalls int
		recovered bool
	}{
		{"clean result is journaled", ctx, 1, value(41, nil), 41, nil, 1, false},
		{"transient error is retried, then journaled", ctx, 2, flaky, 7, nil, 2, true},
		{"error is returned with the last value, not journaled", ctx, 3, value(5, boom), 5, boom, 1, false},
		{"computed under cancellation: returned, not journaled", cancelled, 5, value(6, nil), 6, nil, 1, false},
	} {
		calls = 0
		v, stats, replayed, err := Memo(tc.ctx, cell, tc.key, tc.name, tc.attempt)
		if v != tc.want || !errors.Is(err, tc.wantErr) || replayed || calls != tc.wantCalls ||
			stats.Attempts != tc.wantCalls || stats.Recovered != tc.recovered {
			t.Errorf("%s: got (%d, %+v, replayed=%v, %v) after %d calls", tc.name, v, stats, replayed, err, calls)
		}
	}
	if got := cell.Journal.Written(); got != 2 {
		t.Fatalf("journal holds %d records, want the 2 clean ones", got)
	}
	cell.Journal.Close()

	// Resume: keys 1 and 2 replay without an attempt; the rest recompute.
	cell = open(true)
	for key := uint64(1); key <= 5; key++ {
		calls = 0
		v, stats, replayed, err := Memo(ctx, cell, key, "resume", value(100, nil))
		if err != nil {
			t.Fatal(err)
		}
		if wantReplay := key <= 2; replayed != wantReplay || (calls == 0) != wantReplay ||
			(replayed && stats != resilience.Stats{}) || (replayed && v == 100) {
			t.Errorf("key %d: value %d replayed=%v after %d calls", key, v, replayed, calls)
		}
	}
	if got := reg.Snapshot().Counters["test_replayed_total"]; got != 2 {
		t.Errorf("test_replayed_total = %d, want 2", got)
	}

	// A failed append costs a counter, never the result; a nil journal
	// is a plain retried call.
	cell.Journal.Close()
	if v, _, _, err := Memo(ctx, cell, 99, "closed", value(3, nil)); v != 3 || err != nil {
		t.Errorf("append to a closed journal: got (%d, %v), want the result kept", v, err)
	}
	if got := reg.Snapshot().Counters["checkpoint_append_errors_total"]; got != 1 {
		t.Errorf("checkpoint_append_errors_total = %d, want 1", got)
	}
	cell.Journal = nil
	if v, _, replayed, err := Memo(ctx, cell, 1, "nil", value(8, nil)); v != 8 || replayed || err != nil {
		t.Errorf("nil journal: got (%d, replayed=%v, %v)", v, replayed, err)
	}
}
