package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"
)

// submitTenant submits a distinct spec accounted to the given tenant.
func submitTenant(t *testing.T, m *Manager, tenant string, seed int64, csv string) (JobStatus, error) {
	t.Helper()
	st, _, err := m.Submit(JobSpec{Kind: KindTranslate, TracesCSV: csv, GASeed: seed, Tenant: tenant})
	return st, err
}

// drainQueueOrder pops the admission queue to exhaustion, as the
// scheduler would with each job finishing as soon as it starts, and
// returns the tenant sequence. The manager must not be started.
func drainQueueOrder(m *Manager) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var order []string
	for id := m.queue.next(); id != ""; id = m.queue.next() {
		m.queue.done(id)
		order = append(order, m.jobs[id].Tenant)
	}
	return order
}

// TestDispatchSaturatedKeepsDRROrder (regression): a dispatch attempt
// that finds every executor busy spends no tenant's DRR credit and
// leaves the ring where it was, so a saturated queue drains in weight
// order however many times the scheduler was woken meanwhile.
func TestDispatchSaturatedKeepsDRROrder(t *testing.T) {
	csv := fleetCSV(t, 3, 1, 5)
	for attempts := 0; attempts <= 2; attempts++ {
		m := newTestManager(t, func(c *Config) {
			c.MaxConcurrent = 1
			c.TenantWeights = map[string]int{"gold": 2, "bronze": 1}
		})
		// The scheduler is not started: the test holds the one executor
		// slot with a job of its own, taken before anything else is
		// queued so the ring starts fresh, and makes the attempts itself.
		m.ctx = context.Background()
		holder := &Job{ID: "holder", Kind: KindTranslate, Tenant: "holder", State: StateRunning, Started: time.Now()}
		m.mu.Lock()
		m.jobs[holder.ID] = holder
		m.queue.push(holder.Tenant, holder.ID, holder.Kind)
		if m.queue.next() != holder.ID {
			t.Fatal("executor slot not free")
		}
		m.mu.Unlock()
		for i := int64(1); i <= 3; i++ {
			if _, err := submitTenant(t, m, "gold", i, csv); err != nil {
				t.Fatal(err)
			}
		}
		for i := int64(4); i <= 6; i++ {
			if _, err := submitTenant(t, m, "bronze", i, csv); err != nil {
				t.Fatal(err)
			}
		}
		for range attempts {
			if m.dispatchOne() {
				t.Fatal("dispatched with every executor busy")
			}
		}
		m.mu.Lock()
		m.queue.done(holder.ID)
		m.mu.Unlock()
		got := strings.Join(drainQueueOrder(m), ",")
		if want := "gold,gold,bronze,gold,bronze,bronze"; got != want {
			t.Errorf("after %d saturated attempts: order %s, want %s", attempts, got, want)
		}
	}
}

// TestTenantQuotaSheds: a tenant at its queued-job quota is shed with
// a quota-specific reason while other tenants keep submitting.
func TestTenantQuotaSheds(t *testing.T) {
	m := newTestManager(t, func(c *Config) {
		c.TenantQuotas = map[string]int{"capped": 1}
	})
	csv := fleetCSV(t, 3, 1, 5)
	if _, err := submitTenant(t, m, "capped", 1, csv); err != nil {
		t.Fatal(err)
	}
	_, err := submitTenant(t, m, "capped", 2, csv)
	var overloaded *OverloadedError
	if !errors.As(err, &overloaded) {
		t.Fatalf("quota submit: got %v, want OverloadedError", err)
	}
	if overloaded.Tenant != "capped" || !strings.Contains(overloaded.Reason, "quota") {
		t.Errorf("shed error: tenant=%q reason=%q", overloaded.Tenant, overloaded.Reason)
	}
	if _, err := submitTenant(t, m, "free", 3, csv); err != nil {
		t.Errorf("uncapped tenant shed alongside the capped one: %v", err)
	}
}

// TestWeightedShedLowestFirst: as the shared queue fills, the
// low-weight tenant sheds at its proportional threshold while the
// high-weight tenant still has the full depth.
func TestWeightedShedLowestFirst(t *testing.T) {
	m := newTestManager(t, func(c *Config) {
		c.QueueDepth = 4
		c.TenantWeights = map[string]int{"gold": 2, "bronze": 1}
	})
	csv := fleetCSV(t, 3, 1, 5)
	// Two queued jobs: bronze (threshold 4*1/2 = 2) now sheds, gold
	// (threshold 4) does not.
	if _, err := submitTenant(t, m, "gold", 1, csv); err != nil {
		t.Fatal(err)
	}
	if _, err := submitTenant(t, m, "bronze", 2, csv); err != nil {
		t.Fatal(err)
	}
	_, err := submitTenant(t, m, "bronze", 3, csv)
	var overloaded *OverloadedError
	if !errors.As(err, &overloaded) {
		t.Fatalf("bronze at threshold: got %v, want OverloadedError", err)
	}
	if !strings.Contains(overloaded.Reason, "weighted share") {
		t.Errorf("bronze shed reason %q", overloaded.Reason)
	}
	if _, err := submitTenant(t, m, "gold", 4, csv); err != nil {
		t.Fatalf("gold shed below its threshold: %v", err)
	}
	if _, err := submitTenant(t, m, "gold", 5, csv); err != nil {
		t.Fatalf("gold shed below its threshold: %v", err)
	}
	// Queue now holds 4 = gold's threshold: even gold sheds, as plain
	// queue-full.
	_, err = submitTenant(t, m, "gold", 6, csv)
	if !errors.As(err, &overloaded) {
		t.Fatalf("gold at depth: got %v, want OverloadedError", err)
	}
	if overloaded.Reason != "queue full" {
		t.Errorf("gold shed reason %q, want queue full", overloaded.Reason)
	}
}

// TestTenantExcludedFromIdempotencyKey: the same spec under two
// tenants is one job — the tenant shapes admission, not the result.
func TestTenantExcludedFromIdempotencyKey(t *testing.T) {
	m := newTestManager(t, nil)
	csv := fleetCSV(t, 3, 1, 5)
	first, err := submitTenant(t, m, "a", 1, csv)
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := m.Submit(JobSpec{Kind: KindTranslate, TracesCSV: csv, GASeed: 1, Tenant: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if first.ID != second.ID {
		t.Errorf("tenant leaked into the job key: %s vs %s", first.ID, second.ID)
	}
}

// TestTenantValidation: structurally hostile tenant names are rejected
// at admission.
func TestTenantValidation(t *testing.T) {
	m := newTestManager(t, nil)
	csv := fleetCSV(t, 3, 1, 5)
	for _, bad := range []string{"has space", "sla/sh", strings.Repeat("x", 65), "new\nline"} {
		if _, _, err := m.Submit(JobSpec{Kind: KindTranslate, TracesCSV: csv, Tenant: bad}); err == nil {
			t.Errorf("tenant %q accepted", bad)
		}
	}
}

// TestTenantHeaderWins: the X-Ropus-Tenant header overrides any tenant
// embedded in the spec body and lands in the job status.
func TestTenantHeaderWins(t *testing.T) {
	_, base, _ := startServer(t, Config{StateDir: t.TempDir(), Workers: 1})
	csvJSON, err := json.Marshal(fleetCSV(t, 3, 1, 5))
	if err != nil {
		t.Fatal(err)
	}
	body := `{"kind":"translate","tenant":"body-tenant","tracesCsv":` + string(csvJSON) + `}`
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Ropus-Tenant", "header-tenant")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Tenant != "header-tenant" {
		t.Errorf("tenant %q, want header-tenant", st.Tenant)
	}
}
