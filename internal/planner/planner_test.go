package planner

import (
	"context"
	"testing"
	"time"

	"ropus/internal/core"
	"ropus/internal/faultinject"
	"ropus/internal/placement"
	"ropus/internal/qos"
	"ropus/internal/trace"
	"ropus/internal/workload"
)

func framework(t *testing.T) *core.Framework { return injectingFramework(t, nil) }

// injectingFramework is framework with inj as the consolidation stack's
// fault injector.
func injectingFramework(t *testing.T, inj faultinject.Injector) *core.Framework {
	t.Helper()
	ga := placement.DefaultGAConfig(13)
	ga.MaxGenerations = 30
	ga.Stagnation = 8
	f, err := core.New(core.Config{
		Commitment:           qos.PoolCommitment{Theta: 0.6, Deadline: time.Hour},
		ServerCPUs:           16,
		ServerCapacityPerCPU: 1,
		GA:                   ga,
		Tolerance:            0.25,
		Inject:               inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func requirements() core.Requirements {
	q := qos.AppQoS{ULow: 0.5, UHigh: 0.66, UDegr: 0.9, MPercent: 97}
	return core.Requirements{Default: qos.Requirement{Normal: q, Failure: q}}
}

func fleet(t *testing.T, weeks int) trace.Set {
	t.Helper()
	set, err := workload.Fleet(workload.FleetConfig{
		Spiky: 0, Bursty: 1, Smooth: 3,
		Weeks: weeks, Interval: time.Hour, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func validConfig(t *testing.T) Config {
	return Config{
		Framework:    framework(t),
		Requirements: requirements(),
		HorizonWeeks: 4,
		StepWeeks:    2,
		PoolServers:  2,
	}
}

func TestConfigValidate(t *testing.T) {
	if err := validConfig(t).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{name: "nil framework", mutate: func(c *Config) { c.Framework = nil }},
		{name: "bad requirements", mutate: func(c *Config) { c.Requirements = core.Requirements{} }},
		{name: "zero horizon", mutate: func(c *Config) { c.HorizonWeeks = 0 }},
		{name: "step does not divide", mutate: func(c *Config) { c.StepWeeks = 3 }},
		{name: "zero step", mutate: func(c *Config) { c.StepWeeks = 0 }},
		{name: "negative growth", mutate: func(c *Config) { c.Growth = map[string]float64{"a": -1} }},
		{name: "negative pool", mutate: func(c *Config) { c.PoolServers = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := validConfig(t)
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("Validate() should fail")
			}
		})
	}
}

func TestRunFlatDemandStaysFlat(t *testing.T) {
	cfg := validConfig(t)
	set := fleet(t, 3)
	plan, err := Run(context.Background(), cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 2 {
		t.Fatalf("%d steps, want 2", len(plan.Steps))
	}
	for i, step := range plan.Steps {
		if step.WeeksAhead != (i+1)*cfg.StepWeeks {
			t.Errorf("step %d WeeksAhead = %d", i, step.WeeksAhead)
		}
		if !step.Feasible {
			t.Fatalf("trendless step %d infeasible", i)
		}
		if step.Servers < 1 || step.CRequ <= 0 || step.CPeak <= 0 {
			t.Errorf("step %d looks empty: %+v", i, step)
		}
		// A trendless workload should need roughly the baseline pool.
		if step.Servers > plan.Baseline.Servers+1 {
			t.Errorf("step %d needs %d servers vs baseline %d without any growth",
				i, step.Servers, plan.Baseline.Servers)
		}
	}
}

func TestRunGrowthExhaustsPool(t *testing.T) {
	cfg := validConfig(t)
	set := fleet(t, 3)
	// Set the pool size to the baseline so any growth overflows it.
	base, err := Run(context.Background(), cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	cfg.PoolServers = base.Baseline.Servers
	cfg.Growth = map[string]float64{}
	for _, tr := range set {
		cfg.Growth[tr.AppID] = 4 // 4x demand by the end of the horizon
	}
	plan, err := Run(context.Background(), cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	if plan.ExhaustedAtWeeks == 0 {
		t.Errorf("4x growth over %d weeks should exhaust a %d-server pool: %+v",
			cfg.HorizonWeeks, cfg.PoolServers, plan.Steps)
	}
	last := plan.Steps[len(plan.Steps)-1]
	if last.CPeak <= plan.Baseline.CPeak {
		t.Errorf("growth did not raise CPeak: %v <= %v", last.CPeak, plan.Baseline.CPeak)
	}
	if last.Feasible && last.Servers <= cfg.PoolServers {
		t.Errorf("last step should exceed the pool: %+v", last)
	}
}

func TestRunErrors(t *testing.T) {
	cfg := validConfig(t)
	if _, err := Run(context.Background(), cfg, trace.Set{}); err == nil {
		t.Error("empty trace set accepted")
	}
	oneWeek := fleet(t, 1)
	if _, err := Run(context.Background(), cfg, oneWeek); err == nil {
		t.Error("single-week history accepted")
	}
	set := fleet(t, 3)
	cfg.Growth = map[string]float64{"unknown-app": 2}
	if _, err := Run(context.Background(), cfg, set); err == nil {
		t.Error("growth for unknown app accepted")
	}
	bad := validConfig(t)
	bad.HorizonWeeks = 0
	if _, err := Run(context.Background(), bad, set); err == nil {
		t.Error("invalid config accepted")
	}
}
