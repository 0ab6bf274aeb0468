package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"ropus/internal/resilience"
	"ropus/internal/telemetry"
)

// The experiments matrices ride the same worker pool as the failure
// sweeps and inherit its contract: for a fixed seed the output is
// byte-identical at every worker count. Run under -race (the CI race
// job does) to double as the concurrency-safety check.

func marshalJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestTable1ParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("six Quick consolidations per worker count")
	}
	set := smallFleet(t)
	var want []byte
	for _, workers := range []int{1, 4} {
		rows, err := Table1(context.Background(), set, Table1Config{GASeed: 7, Quick: true, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := marshalJSON(t, rows)
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("workers=%d: Table1 diverges from the sequential run", workers)
		}
	}
}

func TestMixParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("four Quick placements per worker count")
	}
	var want []byte
	for _, workers := range []int{1, 4} {
		rows, err := Mix(context.Background(), MixConfig{Interactive: 2, Batch: 2, Seed: 7, Quick: true, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := marshalJSON(t, rows)
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("workers=%d: Mix diverges from the sequential run", workers)
		}
	}
}

// TestAttemptDeadlineMixRetriesEveryAlgorithm: Mix runs each algorithm
// under its attempt context, so a deadline no attempt can meet retries
// every algorithm once and leaves each row with its name only.
func TestAttemptDeadlineMixRetriesEveryAlgorithm(t *testing.T) {
	reg := telemetry.NewRegistry()
	rows, err := Mix(context.Background(), MixConfig{Interactive: 2, Batch: 2, Seed: 7, Quick: true,
		Hooks: telemetry.New(reg, nil),
		Retry: resilience.Policy{MaxAttempts: 2, AttemptTimeout: time.Nanosecond}})
	if err != nil {
		t.Fatalf("Mix under an unmeetable deadline should degrade, got %v", err)
	}
	if len(rows) != 4 {
		t.Fatalf("want all 4 algorithm rows, got %d", len(rows))
	}
	if got := reg.Snapshot().Counters["resilience_retries_total"]; got != int64(len(rows)) {
		t.Errorf("resilience_retries_total = %d, want one per algorithm (%d)", got, len(rows))
	}
	for _, r := range rows {
		if r != (MixRow{Algorithm: r.Algorithm}) || r.Algorithm == "" {
			t.Errorf("row %+v, want the algorithm's name only", r)
		}
	}
}

func TestMixCancelledReportsNames(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rows, err := Mix(ctx, MixConfig{Interactive: 2, Batch: 2, Seed: 7, Quick: true, Workers: 4})
	if err != nil {
		t.Fatalf("cancelled Mix should degrade, got %v", err)
	}
	if len(rows) != 4 {
		t.Fatalf("want all 4 algorithm rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.Algorithm == "" {
			t.Error("row lost its algorithm name")
		}
		if r.Feasible {
			t.Errorf("%s: nothing ran, row must not claim feasibility", r.Algorithm)
		}
	}
}
