package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ropus/internal/telemetry"
)

// The job IDs below were captured from the build whose JobSpec still
// had an `islands` field (the island-model GA). That build folded the
// island count into the key only when it was > 1, so a spec without
// it, or with `islands` 0 or 1, keeps its ID; a spec with `islands` 4
// named a search this build no longer runs.
const (
	// compatJobID is compatSpec's ID.
	compatJobID = "e719d934a772791f"
	// compatIslands4JobID is the ID that build gave compatSpec with
	// `islands` 4.
	compatIslands4JobID = "c8259c151261b633"
)

// compatSpec is the fixed place spec the compatibility tests pin.
func compatSpec(t *testing.T) JobSpec {
	return JobSpec{Kind: KindPlace, TracesCSV: fleetCSV(t, 4, 1, 5)}
}

// TestCompatJobIDPinned: a default place spec keeps the job ID earlier
// builds gave it, so their journals and dedup keys stay valid.
func TestCompatJobIDPinned(t *testing.T) {
	m := newTestManager(t, nil)
	st, _, err := m.Submit(compatSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != compatJobID {
		t.Errorf("job ID %s, want the pinned %s", st.ID, compatJobID)
	}
}

// recoverLegacySpec writes compatSpec under id into a fresh state dir
// exactly as the build with an `islands` field persisted it, then
// recovers a manager from that dir.
func recoverLegacySpec(t *testing.T, id, islands string) (*Manager, *telemetry.Registry, string) {
	t.Helper()
	spec := compatSpec(t)
	spec.normalize()
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	legacy := bytes.Replace(data, []byte(`"gaSeed":42,`), []byte(`"gaSeed":42,"islands":`+islands+`,`), 1)
	if bytes.Equal(legacy, data) {
		t.Fatal("spec encoding has no gaSeed field to place islands after")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs", id+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	m, err := NewManager(Config{StateDir: dir, Workers: 1}, telemetry.New(reg, nil))
	if err != nil {
		t.Fatal(err)
	}
	return m, reg, path
}

// TestRecoverQuarantinesIslandsSpec: a persisted spec with `islands` 4
// is quarantined on recovery, not run as a one-population job under
// the ID of a search that no longer exists.
func TestRecoverQuarantinesIslandsSpec(t *testing.T) {
	m, reg, path := recoverLegacySpec(t, compatIslands4JobID, "4")
	if _, ok := m.Job(compatIslands4JobID); ok {
		t.Errorf("job %s recovered; want it quarantined", compatIslands4JobID)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Errorf("spec not renamed to .corrupt: %v", err)
	}
	if got := reg.Snapshot().Counters["serve_state_quarantined_total"]; got != 1 {
		t.Errorf("serve_state_quarantined_total = %d, want 1", got)
	}
}

// TestRecoverOneIslandSpec: a persisted spec with `islands` 1 named the
// one-population search, so it recovers under its ID.
func TestRecoverOneIslandSpec(t *testing.T) {
	m, reg, path := recoverLegacySpec(t, compatJobID, "1")
	st, ok := m.Job(compatJobID)
	if !ok {
		t.Fatalf("job %s not recovered", compatJobID)
	}
	if st.State != StateQueued || !st.Resumed {
		t.Errorf("recovered job state %s resumed=%v, want queued and resumed", st.State, st.Resumed)
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("spec file gone: %v", err)
	}
	if got := reg.Snapshot().Counters["serve_state_quarantined_total"]; got != 0 {
		t.Errorf("serve_state_quarantined_total = %d, want 0", got)
	}
}

// TestSubmitRejectsIslands: a POST carrying `islands` answers 400 and
// names the field, instead of silently running a different search.
func TestSubmitRejectsIslands(t *testing.T) {
	_, base, _ := startServer(t, Config{StateDir: t.TempDir(), Workers: 1})
	spec := compatSpec(t)
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	body := bytes.Replace(data, []byte(`{`), []byte(`{"islands":4,`), 1)
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status %d, want 400: %s", resp.StatusCode, msg)
	}
	if !strings.Contains(string(msg), `islands`) {
		t.Errorf("error does not name the field: %s", msg)
	}
}
