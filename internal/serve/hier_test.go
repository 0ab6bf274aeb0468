package serve

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestPartitionAppsKeyCompat: partitionApps is folded into the
// idempotency key only when hierarchical placement is actually on, so
// keys (and the journals bound to them) from clients predating the
// field stay stable.
func TestPartitionAppsKeyCompat(t *testing.T) {
	csv := fleetCSV(t, 4, 1, 5)
	spec := JobSpec{Kind: KindPlace, TracesCSV: csv}
	spec.normalize()
	set, err := spec.parse()
	if err != nil {
		t.Fatal(err)
	}
	base := spec.Key(set)

	zero := spec
	zero.PartitionApps = 0
	if got := zero.Key(set); got != base {
		t.Errorf("partitionApps 0 changed the key: %016x vs %016x", got, base)
	}
	hier := spec
	hier.PartitionApps = 2
	hierKey := hier.Key(set)
	if hierKey == base {
		t.Error("partitionApps 2 did not change the key")
	}
	other := spec
	other.PartitionApps = 3
	if got := other.Key(set); got == hierKey || got == base {
		t.Errorf("partitionApps 3 key %016x collides", got)
	}
}

// TestPartitionAppsValidation: a negative partition bound, like a
// negative pool size, is rejected at admission, not at run time.
func TestPartitionAppsValidation(t *testing.T) {
	m := newTestManager(t, nil)
	for _, tc := range []struct {
		field string
		spec  JobSpec
	}{
		{"partitionApps", JobSpec{Kind: KindPlace, TracesCSV: fleetCSV(t, 3, 1, 5), PartitionApps: -1}},
		{"poolServers", JobSpec{Kind: KindPlan, TracesCSV: fleetCSV(t, 3, 2, 5), PoolServers: -1}},
	} {
		if _, _, err := m.Submit(tc.spec); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("negative %s: got %v", tc.field, err)
		}
	}
}

// TestPlaceJobHierarchical: a place job with partitionApps set runs the
// hierarchical pipeline end to end and still produces a plan summary
// that accounts for every application.
func TestPlaceJobHierarchical(t *testing.T) {
	m := newTestManager(t, nil)
	startManager(t, m)
	spec := JobSpec{Kind: KindPlace, TracesCSV: fleetCSV(t, 6, 1, 5), PartitionApps: 2, GASeed: 7}
	st, _, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, m, st.ID, StateDone)
	if len(done.Result) == 0 {
		t.Fatalf("no result for %s", done.ID)
	}
	var sum struct {
		Applications int `json:"applications"`
		Servers      []struct {
			AppIDs []string `json:"appIds"`
		} `json:"servers"`
	}
	if err := json.Unmarshal(done.Result, &sum); err != nil {
		t.Fatalf("decode summary: %v", err)
	}
	placed := 0
	for _, s := range sum.Servers {
		placed += len(s.AppIDs)
	}
	if sum.Applications != 6 || placed != 6 {
		t.Errorf("hierarchical place summary accounts for %d of %d apps:\n%s",
			placed, sum.Applications, done.Result)
	}
}
