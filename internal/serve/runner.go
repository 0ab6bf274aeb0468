package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"ropus/internal/checkpoint"
	"ropus/internal/core"
	"ropus/internal/flight"
	"ropus/internal/obslog"
	"ropus/internal/placement"
	"ropus/internal/planner"
	"ropus/internal/qos"
	"ropus/internal/report"
	"ropus/internal/resilience"
	"ropus/internal/telemetry"
)

// runJob executes one job and returns its JSON result document.
// Results are deterministic functions of the spec: struct-ordered JSON
// over the byte-identical pipeline outputs, so an interrupted-and-
// resumed job hashes the same as an uninterrupted one. The caller
// discards the result when ctx was cancelled during the run.
func (m *Manager) runJob(ctx context.Context, job *Job, spec JobSpec) (json.RawMessage, error) {
	set, err := spec.parse()
	if err != nil {
		return nil, err
	}
	h := telemetry.New(job.reg, job.tracer)
	// Correlate everything the job does: spans carry the job ID as trace
	// ID (and land in the flight recorder as they end), log records are
	// stamped from the context, and per-scenario sim timings are mirrored
	// into the server's SLO windows as they are observed.
	ctx = telemetry.WithTrace(ctx, telemetry.TraceContext{TraceID: job.ID})
	ctx = obslog.Into(ctx, m.logger)
	job.tracer.OnEnd(flight.SpanSink(m.flight))
	job.reg.OnObserve("failure_scenario_seconds", func(v float64) {
		m.slo.Observe(SeriesScenarioSim, v)
	})

	var journal *checkpoint.Journal
	if spec.Kind == KindFailover || spec.Kind == KindPlan {
		journal, err = m.openJournal(job, spec.Key(set), h)
		if err != nil {
			return nil, err
		}
		defer journal.Close()
	}

	normal := spec.QoS.appQoS()
	failure := spec.FailureQoS.appQoS()

	switch spec.Kind {
	case KindTranslate:
		fw, err := m.framework(spec, h, resilience.Policy{}, nil)
		if err != nil {
			return nil, err
		}
		reqs := core.Requirements{Default: qos.Requirement{Normal: normal, Failure: normal}}
		t, err := fw.Translate(ctx, set, reqs)
		if err != nil {
			return nil, err
		}
		apps := make([]report.AppSummary, len(t.Normal))
		for i, p := range t.Normal {
			apps[i] = report.AppSummary{
				ID:                  p.AppID,
				Breakpoint:          p.P,
				PeakDemandCPU:       p.DMax,
				CappedDemandCPU:     p.DNewMax,
				MaxAllocationCPU:    p.MaxAllocation(),
				CapReductionPercent: p.MaxCapReduction() * 100,
			}
		}
		return marshalResult(apps)

	case KindPlace:
		fw, err := m.framework(spec, h, resilience.Policy{}, nil)
		if err != nil {
			return nil, err
		}
		reqs := core.Requirements{Default: qos.Requirement{Normal: normal, Failure: normal}}
		t, err := fw.Translate(ctx, set, reqs)
		if err != nil {
			return nil, err
		}
		c, err := fw.Consolidate(ctx, t)
		if err != nil {
			return nil, err
		}
		sum, err := report.Summarize(&core.Report{Translation: t, Consolidation: c})
		if err != nil {
			return nil, err
		}
		return marshalResult(sum)

	case KindFailover:
		fw, err := m.framework(spec, h, m.cfg.Retry, journal)
		if err != nil {
			return nil, err
		}
		reqs := core.Requirements{Default: qos.Requirement{Normal: normal, Failure: failure}}
		var r *core.Report
		if spec.ScenariosJSON != "" {
			// parse() already compiled the documents at admission; a
			// failure here would be a programming error, not a client one.
			specs, econ, err := spec.compileScenarios()
			if err != nil {
				return nil, err
			}
			r, err = fw.RunScenarios(ctx, set, reqs, specs, econ)
			if err != nil {
				return nil, err
			}
		} else {
			r, err = fw.Run(ctx, set, reqs)
			if err != nil {
				return nil, err
			}
		}
		sum, err := report.Summarize(r)
		if err != nil {
			return nil, err
		}
		return marshalResult(sum)

	case KindPlan:
		fw, err := m.framework(spec, h, resilience.Policy{}, nil)
		if err != nil {
			return nil, err
		}
		cfg := planner.Config{
			Framework:    fw,
			Requirements: core.Requirements{Default: qos.Requirement{Normal: normal, Failure: normal}},
			HorizonWeeks: spec.HorizonWeeks,
			StepWeeks:    spec.StepWeeks,
			PoolServers:  spec.PoolServers,
			Hooks:        h,
			Retry:        m.cfg.Retry,
			Journal:      journal,
		}
		plan, err := planner.Run(ctx, cfg, set)
		if err != nil {
			return nil, err
		}
		return marshalResult(plan)

	default:
		return nil, fmt.Errorf("serve: unknown job kind %q", spec.Kind)
	}
}

// openJournal opens the job's checkpoint journal for the current lease
// epoch in resume mode. Re-running the same epoch (a restart that
// re-acquired before anyone bumped the epoch) replays the epoch's own
// file; a stolen or re-leased job replays the newest decodable journal
// of any prior epoch — including the legacy pre-fleet <id>.ckpt — into
// a fresh per-epoch file, so a zombie holder still appending to its old
// epoch can never interleave with this run's journal. A journal the
// decoder rejects is skipped (prior epochs) or discarded and recreated
// (our own): a corrupt checkpoint must cost recomputation, not the job.
func (m *Manager) openJournal(job *Job, key uint64, h telemetry.Hooks) (*checkpoint.Journal, error) {
	own := m.ckptPath(job.ID, job.epoch)
	if _, err := os.Stat(own); err == nil {
		j, err := checkpoint.OpenWith(own, key, true, h, checkpoint.Options{Epoch: job.epoch})
		if err == nil {
			return j, nil
		}
		m.hooks.Counter("serve_checkpoint_discarded_total").Inc()
		os.Remove(own)
	}
	for _, prev := range m.ckptCandidates(job.ID, job.epoch) {
		j, err := checkpoint.OpenWith(own, key, true, h,
			checkpoint.Options{Epoch: job.epoch, ResumeFrom: prev})
		if err == nil {
			return j, nil
		}
		// Undecodable or wrong-run prior journal: try the next-older
		// epoch. Leave the file in place — its owner may still be
		// mid-append and a later scan may find it whole.
		m.hooks.Counter("serve_checkpoint_skipped_total").Inc()
		os.Remove(own)
	}
	return checkpoint.OpenWith(own, key, false, h, checkpoint.Options{Epoch: job.epoch})
}

// specGA builds the job's genetic search configuration.
func specGA(spec JobSpec) placement.GAConfig {
	ga := placement.DefaultGAConfig(spec.GASeed)
	ga.Islands = spec.Islands
	return ga
}

// framework builds the per-job framework on the server's shared
// simulation cache and executor-level worker bound.
func (m *Manager) framework(spec JobSpec, h telemetry.Hooks, retry resilience.Policy, j *checkpoint.Journal) (*core.Framework, error) {
	cfg := core.Config{
		Commitment:           qos.PoolCommitment{Theta: spec.Theta, Deadline: time.Duration(spec.Deadline)},
		ServerCPUs:           spec.ServerCPUs,
		ServerCapacityPerCPU: 1,
		GA:                   specGA(spec),
		Tolerance:            0.1,
		Hooks:                h,
		Inject:               m.cfg.Inject,
		Workers:              m.cfg.Workers,
		Retry:                retry,
		Journal:              j,
		PartitionApps:        spec.PartitionApps,
	}
	if m.cache != nil {
		cfg.Cache = m.cache
	} else {
		cfg.CacheBytes = -1
	}
	return core.New(cfg)
}

// marshalResult encodes a result document once; the same bytes are
// stored, served and hashed.
func marshalResult(v any) (json.RawMessage, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("serve: encode result: %w", err)
	}
	return data, nil
}
