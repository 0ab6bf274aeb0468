package core

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"ropus/internal/placement"
	"ropus/internal/qos"
	"ropus/internal/sim"
	"ropus/internal/wlmgr"
	"ropus/internal/workload"
)

// TestPipelineInvariants runs the full pipeline over a collection of
// randomized small fleets and checks the contracts that tie the stages
// together. It is the repository's integration test: portfolio, sim,
// placement, failure and core must agree with each other for every
// assertion to hold.
func TestPipelineInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 4; trial++ {
		seed := rng.Int63()
		theta := []float64{0.5, 0.6, 0.8, 0.95}[trial%4]

		set, err := workload.Fleet(workload.FleetConfig{
			Spiky:    rng.Intn(2),
			Bursty:   1 + rng.Intn(2),
			Smooth:   2 + rng.Intn(3),
			Weeks:    1,
			Interval: time.Hour,
			Seed:     seed,
		})
		if err != nil {
			t.Fatal(err)
		}

		ga := placement.DefaultGAConfig(seed)
		ga.MaxGenerations = 30
		ga.Stagnation = 8
		f, err := New(Config{
			Commitment:           qos.PoolCommitment{Theta: theta, Deadline: time.Hour},
			ServerCPUs:           16,
			ServerCapacityPerCPU: 1,
			GA:                   ga,
			Tolerance:            0.2,
		})
		if err != nil {
			t.Fatal(err)
		}
		q := qos.AppQoS{ULow: 0.5, UHigh: 0.66, UDegr: 0.9, MPercent: 97, TDegr: time.Hour}
		report, err := f.Run(context.Background(), set, Requirements{Default: qos.Requirement{Normal: q, Failure: q}})
		if err != nil {
			t.Fatalf("trial %d (seed %d, theta %v): %v", trial, seed, theta, err)
		}

		checkTranslationInvariants(t, report, q, theta)
		checkPlanInvariants(t, report, theta)
		checkWorkloadManagerAgreement(t, report)
	}
}

// checkTranslationInvariants: caps never exceed peaks; CoS1 share
// matches the breakpoint; allocation traces are consistent.
func checkTranslationInvariants(t *testing.T, r *Report, q qos.AppQoS, theta float64) {
	t.Helper()
	for i, p := range r.Translation.Normal {
		if p.DNewMax > p.DMax+1e-9 {
			t.Errorf("app %s: cap %v above peak %v", p.AppID, p.DNewMax, p.DMax)
		}
		wantCoS1Peak := p.P * p.DNewMax / q.ULow
		if got := p.CoS1Peak(); got > wantCoS1Peak+1e-9 {
			t.Errorf("app %s: CoS1 peak %v above breakpoint share %v", p.AppID, got, wantCoS1Peak)
		}
		// Demand at or below the cap receives allocation demand/Ulow.
		tr := r.Translation.Traces[i]
		for j, d := range tr.Samples {
			total := p.CoS1.Samples[j] + p.CoS2.Samples[j]
			if d <= p.DNewMax && total < d/q.ULow-1e-9 {
				t.Fatalf("app %s slot %d: allocation %v below %v", p.AppID, j, total, d/q.ULow)
			}
			if total > p.MaxAllocation()+1e-9 {
				t.Fatalf("app %s slot %d: allocation %v above max %v", p.AppID, j, total, p.MaxAllocation())
			}
		}
	}
}

// checkPlanInvariants: every app hosted exactly once; per-server
// required capacity within the server; measured θ at required capacity
// meets the commitment.
func checkPlanInvariants(t *testing.T, r *Report, theta float64) {
	t.Helper()
	plan := r.Consolidation.Plan
	if !plan.Feasible {
		t.Fatal("plan infeasible")
	}
	hosted := make(map[string]int)
	for s, usage := range plan.Usages {
		if len(usage.AppIDs) == 0 {
			continue
		}
		srv := r.Consolidation.Problem.Servers[s]
		if usage.Required > srv.Capacity()+1e-6 {
			t.Errorf("server %s: required %v above capacity %v", srv.ID, usage.Required, srv.Capacity())
		}
		if !usage.Result.Fits(theta) {
			t.Errorf("server %s: result does not fit commitment theta=%v: %+v", srv.ID, theta, usage.Result)
		}
		for _, id := range usage.AppIDs {
			hosted[id]++
		}
	}
	for _, p := range r.Translation.Normal {
		if hosted[p.AppID] != 1 {
			t.Errorf("app %s hosted %d times", p.AppID, hosted[p.AppID])
		}
	}
}

// checkWorkloadManagerAgreement replays each consolidated server through
// the workload-manager simulator at its required capacity: the
// guaranteed class must never overload (the placement's core promise).
func checkWorkloadManagerAgreement(t *testing.T, r *Report) {
	t.Helper()
	byID := make(map[string]int, len(r.Translation.Normal))
	for i, p := range r.Translation.Normal {
		byID[p.AppID] = i
	}
	for s, usage := range r.Consolidation.Plan.Usages {
		if len(usage.AppIDs) == 0 {
			continue
		}
		containers := make([]wlmgr.Container, 0, len(usage.AppIDs))
		for _, id := range usage.AppIDs {
			i := byID[id]
			containers = append(containers, wlmgr.Container{
				Demand:    r.Translation.Traces[i],
				Partition: r.Translation.Normal[i],
			})
		}
		res, err := wlmgr.Replay(context.Background(), usage.Required+1e-9, containers, wlmgr.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.CoS1Overload != 0 {
			t.Errorf("server %s: %d CoS1 overload slots at required capacity",
				r.Consolidation.Problem.Servers[s].ID, res.CoS1Overload)
		}
	}
}

// TestRequiredCapacityAgreesWithSim cross-checks the plan's reported
// required capacity against a fresh simulator run: replaying the
// server's workloads at the reported capacity must satisfy the
// commitment, and replaying clearly below it must not (unless the
// requirement collapsed to the CoS1 peak).
func TestRequiredCapacityAgreesWithSim(t *testing.T) {
	set, err := workload.Fleet(workload.FleetConfig{
		Spiky: 1, Bursty: 2, Smooth: 3,
		Weeks: 1, Interval: time.Hour, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	q := qos.AppQoS{ULow: 0.5, UHigh: 0.66, UDegr: 0.9, MPercent: 97}
	report, err := f.Run(context.Background(), set, Requirements{Default: qos.Requirement{Normal: q, Failure: q}})
	if err != nil {
		t.Fatal(err)
	}
	theta := 0.6
	for s, usage := range report.Consolidation.Plan.Usages {
		if len(usage.AppIDs) == 0 {
			continue
		}
		workloads := make([]sim.Workload, 0, len(usage.AppIDs))
		for _, a := range report.Consolidation.Problem.Apps {
			for _, id := range usage.AppIDs {
				if a.ID == id {
					workloads = append(workloads, a.Workload)
				}
			}
		}
		agg, err := sim.NewAggregate(workloads)
		if err != nil {
			t.Fatal(err)
		}
		cfg := sim.Config{
			Capacity:      usage.Required,
			Commitment:    report.Consolidation.Problem.Commitment,
			SlotsPerDay:   report.Consolidation.Problem.SlotsPerDay,
			DeadlineSlots: report.Consolidation.Problem.DeadlineSlots,
		}
		res, err := agg.Replay(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Fits(theta) {
			t.Errorf("server %d: replay at reported required capacity does not fit", s)
		}
		// Clearly below the requirement the commitment must fail,
		// unless the requirement equals the CoS1 floor.
		below := usage.Required * 0.8
		if below > agg.CoS1Peak()+0.01 {
			cfg.Capacity = below
			res, err = agg.Replay(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Fits(theta) {
				t.Errorf("server %d: replay at 80%% of required capacity still fits — requirement overstated", s)
			}
		}
	}
}
