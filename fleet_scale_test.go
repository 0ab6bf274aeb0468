package ropus

// Fleet-scale contract for the hierarchical pool-of-pools placement:
// a 1000-application plan must complete inside the ordinary go test
// deadline and be byte-identical at any worker count. Its speed is the
// `fleet1k` workload of `go run ./bench`.

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"ropus/internal/core"
	"ropus/internal/placement"
	"ropus/internal/qos"
	"ropus/internal/trace"
	"ropus/internal/workload"
)

const (
	fleetScaleApps          = 1000
	fleetScalePartitionApps = 25
)

// fleetScaleSet generates the deterministic 1000-app heterogeneous
// fleet: default class mix, one week of hourly samples, seed 2006.
func fleetScaleSet(t testing.TB) trace.Set {
	t.Helper()
	set, err := workload.ScaleFleet(workload.ScaleConfig{
		Apps: fleetScaleApps, Weeks: 1, Interval: time.Hour, Seed: 2006,
	})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// fleetScalePlan runs translate + hierarchical consolidate over the
// fleet at the given worker count and evaluation-store budget (0: the
// default) and returns the consolidation and the store's counters.
func fleetScalePlan(t testing.TB, set trace.Set, workers int, cacheBytes int64) (*core.Consolidation, placement.CacheStats) {
	t.Helper()
	f, err := core.New(core.Config{
		Commitment:           qos.PoolCommitment{Theta: 0.6, Deadline: time.Hour},
		ServerCPUs:           16,
		ServerCapacityPerCPU: 1,
		GA:                   placement.DefaultGAConfig(42),
		Tolerance:            0.1,
		Workers:              workers,
		CacheBytes:           cacheBytes,
		PartitionApps:        fleetScalePartitionApps,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := qos.AppQoS{ULow: 0.5, UHigh: 0.66, UDegr: 0.9, MPercent: 97, TDegr: 30 * time.Minute}
	tr, err := f.Translate(ctx, set, core.Requirements{Default: qos.Requirement{Normal: q, Failure: q}})
	if err != nil {
		t.Fatal(err)
	}
	cons, err := f.Consolidate(ctx, tr)
	if err != nil {
		t.Fatal(err)
	}
	return cons, f.CacheStats()
}

// fleetPlanBytes fingerprints a consolidation: the full plan document
// plus the hierarchical stitch, byte-comparable across runs.
func fleetPlanBytes(t testing.TB, cons *core.Consolidation) []byte {
	t.Helper()
	doc := struct {
		Plan any
		Hier any
	}{cons.Plan, cons.Hier}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestFleetScaleHierarchicalDeterminism: the 1000-app hierarchical
// plan splits into the expected sub-pool count, places every
// application, and is byte-identical at 1 and 8 workers and on a 1 MiB
// evaluation store, small enough that the partitions evict records they
// scored and compute them again.
func TestFleetScaleHierarchicalDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet-scale plan skipped in -short mode")
	}
	set := fleetScaleSet(t)
	base, _ := fleetScalePlan(t, set, 1, 0)
	if base.Hier == nil {
		t.Fatal("PartitionApps set but consolidation is not hierarchical")
	}
	if want := fleetScaleApps / fleetScalePartitionApps; len(base.Hier.Partitions) != want {
		t.Errorf("partitions: got %d, want %d", len(base.Hier.Partitions), want)
	}
	if !base.Plan.Feasible {
		t.Error("fleet-scale plan infeasible")
	}
	placed := 0
	for _, u := range base.Plan.Usages {
		placed += len(u.AppIDs)
	}
	if placed != fleetScaleApps {
		t.Errorf("plan places %d of %d apps", placed, fleetScaleApps)
	}
	want := fleetPlanBytes(t, base)
	wide, _ := fleetScalePlan(t, set, 8, 0)
	if !bytes.Equal(want, fleetPlanBytes(t, wide)) {
		t.Error("hierarchical plan differs between 1 and 8 workers")
	}
	small, stats := fleetScalePlan(t, set, 2, 1<<20)
	t.Logf("1 MiB store: %+v", stats)
	if stats.Evictions == 0 {
		t.Errorf("a 1 MiB store evicted nothing: %+v", stats)
	}
	if !bytes.Equal(want, fleetPlanBytes(t, small)) {
		t.Error("hierarchical plan differs on an evicting store")
	}
}
