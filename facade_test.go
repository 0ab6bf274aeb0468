package ropus

// Facade tests for the lifecycle APIs added on top of the core pipeline:
// the placement heuristics, capacity planning and pool failure
// simulation — all exercised through the public surface only.

import (
	"context"
	"testing"
	"time"
)

// flatPlacementApp builds a constant-demand placement app (bin-packing
// semantics: required capacity is additive).
func flatPlacementApp(id string, size float64, slots int) PlacementApp {
	c2 := make([]float64, slots)
	for i := range c2 {
		c2[i] = size
	}
	return PlacementApp{ID: id, Workload: Workload{AppID: id, CoS1: make([]float64, slots), CoS2: c2}}
}

func facadeProblem(sizes []float64, cpus int) *PlacementProblem {
	apps := make([]PlacementApp, len(sizes))
	for i, s := range sizes {
		apps[i] = flatPlacementApp("app-"+string(rune('a'+i)), s, 28)
	}
	servers := make([]Server, len(sizes))
	for i := range servers {
		servers[i] = Server{ID: "srv-" + string(rune('a'+i)), CPUs: cpus, CPUCapacity: 1}
	}
	return &PlacementProblem{
		Apps:          apps,
		Servers:       servers,
		Commitment:    PoolCommitment{Theta: 0.9, Deadline: time.Hour},
		SlotsPerDay:   4,
		DeadlineSlots: 2,
		Tolerance:     0.01,
	}
}

func TestFacadePlacementAlgorithms(t *testing.T) {
	p := facadeProblem([]float64{6, 6, 4, 4, 3, 3, 2}, 10)
	const optimum = 3 // 28 CPUs of flat demand on 10-CPU servers
	for _, fn := range []func(context.Context, *PlacementProblem) (*Plan, error){
		FirstFitDecreasing, BestFitDecreasing, LeastCorrelatedFit,
	} {
		plan, err := fn(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if !plan.Feasible || plan.ServersUsed < optimum {
			t.Errorf("heuristic plan: feasible=%v servers=%d (optimum %d)",
				plan.Feasible, plan.ServersUsed, optimum)
		}
	}

	initial, err := OneAppPerServer(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultGAConfig(7)
	cfg.MaxGenerations = 80
	ga, err := ConsolidatePlacement(context.Background(), p, initial, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ga.ServersUsed < optimum || ga.ServersUsed >= len(p.Servers) {
		t.Errorf("consolidation from one-per-server uses %d servers, want [%d, %d)",
			ga.ServersUsed, optimum, len(p.Servers))
	}
}

func TestFacadeCapacityPlanning(t *testing.T) {
	traces, err := GenerateFleet(FleetConfig{
		Smooth: 3, Weeks: 2, Interval: time.Hour, Seed: 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	ga := DefaultGAConfig(5)
	ga.MaxGenerations = 30
	ga.Stagnation = 8
	f, err := NewFramework(Config{
		Commitment:           PoolCommitment{Theta: 0.6, Deadline: time.Hour},
		ServerCPUs:           16,
		ServerCapacityPerCPU: 1,
		GA:                   ga,
		Tolerance:            0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := AppQoS{ULow: 0.5, UHigh: 0.66, UDegr: 0.9, MPercent: 97}
	plan, err := PlanCapacity(context.Background(), PlannerConfig{
		Framework:    f,
		Requirements: Requirements{Default: Requirement{Normal: q, Failure: q}},
		HorizonWeeks: 2,
		StepWeeks:    1,
		PoolServers:  3,
	}, traces)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 2 {
		t.Errorf("%d steps, want 2", len(plan.Steps))
	}
}

func TestFacadePoolFailureSimulation(t *testing.T) {
	traces, err := GenerateFleet(FleetConfig{
		Smooth: 2, Weeks: 1, Interval: time.Hour, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := AppQoS{ULow: 0.5, UHigh: 0.66, UDegr: 0.9, MPercent: 100}
	apps := make([]PoolApp, len(traces))
	for i, tr := range traces {
		part, err := Translate(tr, q, 0.6)
		if err != nil {
			t.Fatal(err)
		}
		apps[i] = PoolApp{Demand: tr, Normal: part, Failure: part}
	}
	res, err := SimulatePoolFailure(&PoolScenario{
		Apps:           apps,
		ServerCapacity: 32,
		Normal:         []int{0, 1},
		FailedServer:   0,
		FailAt:         24,
		MigrationDelay: 3,
		After:          []int{1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OutageDuration() != 3*time.Hour {
		t.Errorf("OutageDuration = %v, want 3h", res.OutageDuration())
	}
	if !res.Apps[0].Migrated || res.Apps[1].Migrated {
		t.Error("migration flags wrong")
	}
}
