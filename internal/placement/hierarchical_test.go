package placement

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"ropus/internal/checkpoint"
	"ropus/internal/telemetry"
	"ropus/internal/topology"
)

// hierSizes is a 12-app corpus that packs perfectly into a handful of
// 10-CPU servers, so sub-pool searches converge in a few generations.
var hierSizes = []float64{6, 6, 4, 4, 3, 3, 2, 5, 5, 4, 3, 3}

// hierProblem builds a 12-app, 12-server exercise for the hierarchical
// suite (one server per app, the usual starting pool).
func hierProblem() *Problem {
	return binPackProblem(hierSizes, len(hierSizes), 10)
}

// hierGA is a fast configuration for the hierarchical suite.
func hierGA(seed int64) GAConfig {
	cfg := DefaultGAConfig(seed)
	cfg.MaxGenerations = 25
	cfg.Stagnation = 10
	return cfg
}

// hierFingerprint folds everything observable about a hierarchical plan
// into a comparable string.
func hierFingerprint(h *HierPlan) string {
	if h == nil {
		return "<nil>"
	}
	s := planFingerprint(h.Plan)
	for _, sub := range h.Partitions {
		s += fmt.Sprintf("|p%d apps=%v servers=%v rack=%q used=%d required=%b seed=%d",
			sub.Index, sub.AppIDs, sub.Servers, sub.Rack, sub.ServersUsed, sub.Required, sub.Seed)
	}
	for _, r := range h.Racks {
		s += fmt.Sprintf("|rack=%s parts=%v servers=%d", r.Rack, r.Partitions, r.Servers)
	}
	return s
}

// TestPropertyHierarchicalSinglePartitionFlat pins the compatibility
// contract: when the fleet fits in one partition, the hierarchical
// search delegates to Consolidate and the wrapped plan is byte-identical
// to the flat plan from the same seed.
func TestPropertyHierarchicalSinglePartitionFlat(t *testing.T) {
	ga := hierGA(2006)
	p1 := hierProblem()
	initial, err := OneAppPerServer(p1)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Consolidate(context.Background(), p1, initial, ga)
	if err != nil {
		t.Fatal(err)
	}
	p2 := hierProblem()
	hier, err := ConsolidateHierarchical(context.Background(), p2, initial, ga,
		HierConfig{MaxApps: len(hierSizes)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(flat, hier.Plan) {
		t.Errorf("single-partition hierarchical diverged from flat:\n got %s\nwant %s",
			planFingerprint(hier.Plan), planFingerprint(flat))
	}
	if len(hier.Partitions) != 1 || len(hier.Partitions[0].AppIDs) != len(hierSizes) {
		t.Errorf("expected one partition covering the fleet, got %+v", hier.Partitions)
	}
}

// TestPropertyHierarchicalNeverBeatsFlat is the merge-metamorphic
// check: the partitioned search solves a strictly constrained version of
// the flat problem (apps may not co-locate across sub-pools), so it can
// never use fewer servers than the flat search from the same seed.
func TestPropertyHierarchicalNeverBeatsFlat(t *testing.T) {
	ga := hierGA(7)
	p1 := hierProblem()
	initial, err := OneAppPerServer(p1)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Consolidate(context.Background(), p1, initial, ga)
	if err != nil {
		t.Fatal(err)
	}
	for _, maxApps := range []int{3, 4, 6} {
		hier, err := ConsolidateHierarchical(context.Background(), hierProblem(), initial, ga,
			HierConfig{MaxApps: maxApps})
		if err != nil {
			t.Fatalf("maxApps=%d: %v", maxApps, err)
		}
		if !hier.Plan.Feasible {
			t.Fatalf("maxApps=%d: infeasible stitched plan", maxApps)
		}
		if hier.Plan.ServersUsed < flat.ServersUsed {
			t.Errorf("maxApps=%d: hierarchical used %d servers, flat baseline %d — partitioning cannot relax the problem",
				maxApps, hier.Plan.ServersUsed, flat.ServersUsed)
		}
	}
}

// TestChaosHierarchicalDeterminism pins the tentpole contract: the
// stitched plan is byte-identical across every combination of stitch
// workers and GOMAXPROCS.
func TestChaosHierarchicalDeterminism(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var want string
	for _, workers := range []int{1, 4, 8} {
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			p := hierProblem()
			initial, err := OneAppPerServer(p)
			if err != nil {
				runtime.GOMAXPROCS(prev)
				t.Fatal(err)
			}
			hier, err := ConsolidateHierarchical(context.Background(), p, initial,
				hierGA(2006), HierConfig{MaxApps: 4, Workers: workers})
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("workers=%d procs=%d: %v", workers, procs, err)
			}
			got := hierFingerprint(hier)
			if want == "" {
				want = got
				continue
			}
			if got != want {
				t.Errorf("workers=%d procs=%d diverged:\n got %s\nwant %s",
					workers, procs, got, want)
			}
		}
	}
}

// TestChaosHierarchicalTopologyStitch checks the rack-aware stitch:
// every partition that fits a rack is confined to it, the rack summary
// is consistent, and the stitched plan stays deterministic.
func TestChaosHierarchicalTopologyStitch(t *testing.T) {
	topo, err := topology.Synthesize(topology.GenConfig{
		Servers: len(hierSizes), Zones: 2, RacksPerZone: 2,
		ServerID: func(i int) string { return "srv-" + string(rune('a'+i)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	var want string
	for run := 0; run < 2; run++ {
		p := hierProblem()
		initial, err := OneAppPerServer(p)
		if err != nil {
			t.Fatal(err)
		}
		hier, err := ConsolidateHierarchical(context.Background(), p, initial, hierGA(2006),
			HierConfig{MaxApps: 4, Topology: topo})
		if err != nil {
			t.Fatal(err)
		}
		if got := hierFingerprint(hier); run == 0 {
			want = got
		} else if got != want {
			t.Errorf("topology stitch not repeatable:\n got %s\nwant %s", got, want)
		}
		if len(hier.Racks) == 0 {
			t.Fatal("no rack placements recorded")
		}
		onRack := make(map[int]string)
		for _, r := range hier.Racks {
			for _, k := range r.Partitions {
				onRack[k] = r.Rack
			}
		}
		for _, sub := range hier.Partitions {
			if sub.Rack == "" {
				continue // spanned; legal when no rack had room
			}
			if onRack[sub.Index] != sub.Rack {
				t.Errorf("partition %d reports rack %q but the rack summary says %q",
					sub.Index, sub.Rack, onRack[sub.Index])
			}
			members, err := topo.ServersIn(sub.Rack)
			if err != nil {
				t.Fatal(err)
			}
			member := make(map[string]bool, len(members))
			for _, s := range members {
				member[s] = true
			}
			for _, s := range sub.Servers {
				if !member[s] {
					t.Errorf("partition %d on rack %q holds foreign server %q", sub.Index, sub.Rack, s)
				}
			}
		}
	}
}

// TestCancelHierarchicalResume proves the per-partition journal replays
// to the same plan: a journaled run, killed at an arbitrary partition
// boundary, resumes into a plan byte-identical to an uninterrupted run.
func TestCancelHierarchicalResume(t *testing.T) {
	dir := t.TempDir()
	ga := hierGA(2006)
	cfg := HierConfig{MaxApps: 4, Workers: 2}
	run := func(journal *checkpoint.Journal, ctx context.Context) (*HierPlan, error) {
		p := hierProblem()
		initial, err := OneAppPerServer(p)
		if err != nil {
			t.Fatal(err)
		}
		c := cfg
		c.Journal = journal
		return ConsolidateHierarchical(ctx, p, initial, ga, c)
	}

	// Baseline: a journaled, uninterrupted run.
	path := filepath.Join(dir, "hier.journal")
	j1, err := checkpoint.Open(path, 42, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := run(j1, context.Background())
	j1.Close()
	if err != nil {
		t.Fatal(err)
	}
	if j1.Written() != len(baseline.Partitions) {
		t.Fatalf("journaled %d partitions, want %d", j1.Written(), len(baseline.Partitions))
	}

	// Resume: every partition must replay from the journal, and the plan
	// must be byte-identical.
	j2, err := checkpoint.Open(path, 42, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := run(j2, context.Background())
	j2.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range resumed.Partitions {
		if !sub.Replayed {
			t.Errorf("partition %d was re-solved, want replay", sub.Index)
		}
	}
	// A copy: baseline itself stays the fresh run's plan (nothing
	// replayed) for the comparison with an uncancelled torn run below.
	want := *baseline
	want.Partitions = append([]SubPool(nil), baseline.Partitions...)
	for i := range want.Partitions {
		want.Partitions[i].Replayed = true
	}
	if !reflect.DeepEqual(&want, resumed) {
		t.Errorf("resumed plan diverged:\n got %s\nwant %s",
			hierFingerprint(resumed), hierFingerprint(&want))
	}

	// Interrupted run: cancel concurrently so the run dies at an
	// arbitrary partition boundary. Whatever prefix was journaled, the
	// subsequent resume must still converge to the baseline plan.
	tornPath := filepath.Join(dir, "torn.journal")
	j3, err := checkpoint.Open(tornPath, 42, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(2*time.Millisecond, cancel)
	torn, terr := run(j3, ctx)
	timer.Stop()
	cancel()
	j3.Close()
	if terr != nil && !errors.Is(terr, context.Canceled) {
		t.Fatalf("interrupted run failed for a non-cancellation reason: %v", terr)
	}
	if terr == nil && !reflect.DeepEqual(baseline, torn) {
		// The cancel landed after the last partition: a complete run must
		// still be byte-identical.
		t.Errorf("uncancelled run diverged:\n got %s\nwant %s",
			hierFingerprint(torn), hierFingerprint(baseline))
	}
	j4, err := checkpoint.Open(tornPath, 42, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	final, err := run(j4, context.Background())
	j4.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := planFingerprint(final.Plan), planFingerprint(baseline.Plan); got != want {
		t.Errorf("post-interrupt resume diverged:\n got %s\nwant %s", got, want)
	}
}

// TestHierarchicalJournalBestEffort pins the journal rule every
// checkpoint.Memo sweep shares: an unreadable partition record is
// recomputed and a failed append costs a counter — neither changes the
// plan.
func TestHierarchicalJournalBestEffort(t *testing.T) {
	ga := hierGA(2006)
	cfg := HierConfig{MaxApps: 4, Workers: 2}
	run := func(journal *checkpoint.Journal) (*HierPlan, map[string]int64) {
		t.Helper()
		reg := telemetry.NewRegistry()
		p := hierProblem()
		p.Hooks = telemetry.New(reg, nil)
		initial, err := OneAppPerServer(p)
		if err != nil {
			t.Fatal(err)
		}
		c := cfg
		c.Journal = journal
		hier, err := ConsolidateHierarchical(context.Background(), p, initial, ga, c)
		if err != nil {
			t.Fatal(err)
		}
		return hier, reg.Snapshot().Counters
	}
	want, _ := run(nil)
	parts := int64(len(want.Partitions))

	// A record filed under partition 1's key that does not decode as a
	// partition record.
	p := hierProblem()
	split, err := SplitProblem(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	key := partitionKey(1, partitionSeed(ga.Seed, len(split.Groups), 1), appIDs(p, split.Groups[1]))
	j, err := checkpoint.Open(filepath.Join(t.TempDir(), "hier.journal"), 42, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append("placement.partition", key, "not a partition record"); err != nil {
		t.Fatal(err)
	}
	got, counters := run(j)
	if hierFingerprint(got) != hierFingerprint(want) {
		t.Errorf("plan over an unreadable record diverged:\n got %s\nwant %s",
			hierFingerprint(got), hierFingerprint(want))
	}
	if counters["hier_partitions_solved_total"] != parts || counters["hier_partitions_replayed_total"] != 0 {
		t.Errorf("solved %d, replayed %d partitions, want all %d recomputed",
			counters["hier_partitions_solved_total"], counters["hier_partitions_replayed_total"], parts)
	}

	// A closed journal fails every append.
	j.Close()
	closed, err := checkpoint.Open(filepath.Join(t.TempDir(), "closed.journal"), 42, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	closed.Close()
	got, counters = run(closed)
	if hierFingerprint(got) != hierFingerprint(want) {
		t.Errorf("plan over failing appends diverged:\n got %s\nwant %s",
			hierFingerprint(got), hierFingerprint(want))
	}
	if counters["checkpoint_append_errors_total"] != parts || counters["hier_partitions_solved_total"] != parts {
		t.Errorf("append errors %d, solved %d, want %d each",
			counters["checkpoint_append_errors_total"], counters["hier_partitions_solved_total"], parts)
	}
}

// TestHierarchicalValidation covers the hierarchical-specific input
// checks.
func TestHierarchicalValidation(t *testing.T) {
	ga := hierGA(1)
	p := hierProblem()
	initial, err := OneAppPerServer(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ConsolidateHierarchical(context.Background(), hierProblem(), initial, ga,
		HierConfig{MaxApps: 0}); err == nil {
		t.Error("MaxApps 0 accepted")
	}
	if _, err := ConsolidateHierarchical(context.Background(), hierProblem(), initial, ga,
		HierConfig{MaxApps: 4, Buckets: -1}); err == nil {
		t.Error("negative Buckets accepted")
	}
	mixed := hierProblem()
	mixed.Servers[3].CPUs = 32
	if _, err := ConsolidateHierarchical(context.Background(), mixed, initial, ga,
		HierConfig{MaxApps: 4}); err == nil {
		t.Error("non-uniform server shapes accepted")
	}
}

// TestHierarchicalSharedCacheIdentical pins that the shared simulation
// cache does not change the stitched plan: cached and uncached runs are
// byte-identical (the cache is keyed by content, and sub-pool servers
// share the pool's shape).
func TestHierarchicalSharedCacheIdentical(t *testing.T) {
	ga := hierGA(13)
	cfg := HierConfig{MaxApps: 4}
	var plans []*HierPlan
	for _, cache := range []*SimCache{nil, NewSimCache(0)} {
		p := hierProblem()
		p.Cache = cache
		initial, err := OneAppPerServer(p)
		if err != nil {
			t.Fatal(err)
		}
		hier, err := ConsolidateHierarchical(context.Background(), p, initial, ga, cfg)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, hier)
	}
	if got, want := hierFingerprint(plans[1]), hierFingerprint(plans[0]); got != want {
		t.Errorf("cached run diverged:\n got %s\nwant %s", got, want)
	}
}
