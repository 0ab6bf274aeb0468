package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// plan.go runs the three planner workloads: table1, failover, fleet1k.
// An operation is one full plan of one generated fleet on a fresh
// framework. A run plans its fleets in a fixed order, again from the
// first when it reaches the last, until the measured time is used up.

// checked is a finished operation after verification.
type checked struct {
	quality quality
	bound   bound
}

// planOp runs one plan (the timed part) and returns the function that
// verifies its output from outside (not timed).
type planOp func(ctx context.Context, in *planInput, env planEnv) (check func() (checked, error), err error)

// planWorkload is one planner workload.
type planWorkload struct {
	name   string
	inputs int
	gen    func(seed int64) (fleet, error)
	// prepare builds what every operation shares beyond the fleets; it is
	// part of set-up.
	prepare func() error
	op      planOp
	// probe is the pipeline of the traced run's probe plan: the plan whose
	// per-server app groups the simulator and placement probes time.
	probe func() pipeline
	// only reports per-layer timings of stages that run on this workload
	// alone.
	only func(ctx context.Context, r *planRun) error
}

// runOpts is one invocation of the benchmark.
type runOpts struct {
	seed    int64
	seconds float64
	traced  bool
	size    sizing
	workDir string // scratch space inside the checkout
}

func planWorkloads(sz sizing, workDir string) map[string]*planWorkload {
	bounds := map[int64][]bound{} // table1's per-case references, by input seed
	var scenarios *scenarioSet
	var compileMS float64

	table1 := &planWorkload{
		name:   "table1",
		inputs: sz.table1Inputs,
		gen:    func(seed int64) (fleet, error) { return genMix(sz.caseStudy, seed) },
		op: func(ctx context.Context, in *planInput, env planEnv) (func() (checked, error), error) {
			var out *table1Out
			_, err := env.spans.timed(env.trace, env.parent, "experiments.table1", func() (err error) {
				out, err = runTable1(ctx, in.fleet, env.workers, env.hooks)
				return err
			})
			if err != nil {
				return nil, err
			}
			return func() (checked, error) {
				if bounds[in.seed] == nil {
					for _, p := range table1Pipelines() {
						b, err := p.bound(ctx, in.fleet)
						if err != nil {
							return checked{}, err
						}
						bounds[in.seed] = append(bounds[in.seed], b)
					}
				}
				sum := bound{}
				for _, b := range bounds[in.seed] {
					sum.pooled += b.pooled
				}
				return checked{quality: out.quality(), bound: sum}, verifyRows(out, bounds[in.seed])
			}, nil
		},
		probe: func() pipeline { return table1Pipelines()[0] },
	}

	failover := &planWorkload{
		name:   "failover",
		inputs: sz.failoverInputs,
		gen:    table1.gen,
		prepare: func() (err error) {
			var d time.Duration
			scenarios, d, err = compileScenarios(scenarioDoc, sz.caseStudy, 2, sz.racksPerZone, 2)
			compileMS = d.Seconds() * 1e3
			return err
		},
		probe: func() pipeline { return failoverPipeline(scenarios) },
	}
	// Every failover plan is journaled to a real file, as `ropus failover
	// -checkpoint` would: one fsync per analyzed scenario.
	journalPath := func(in *planInput) string {
		return filepath.Join(workDir, fmt.Sprintf("failover-%d.ckpt", in.seed))
	}
	failover.op = pipelineOp(failover.probe, func(in *planInput, env planEnv) (*journal, error) {
		return openJournal(journalPath(in), uint64(in.seed), false, env.hooks)
	})
	failover.only = func(ctx context.Context, r *planRun) error {
		r.res.setOnly("scenario.compile_ms", compileMS, "ms", 0)
		r.stageOnly("failure.sweep_s", "core.plan_for_failures")
		r.stageOnly("failure.scenarios_s", "core.plan_for_scenarios")
		if n := r.res.Metrics["failure.scenarios"].Value; n > 0 {
			perScenario := (median(r.spans.durations("core.plan_for_failures")) + median(r.spans.durations("core.plan_for_scenarios"))) / n
			r.res.setOnly("failure.ms_per_scenario", perScenario*1e3, "ms", int(n))
		}
		// The read side of the journal: the same plan against the journal
		// the counting repetition just filled. Every scenario replays.
		in := &r.inputs[0]
		j, err := openJournal(journalPath(in), uint64(in.seed), true, nil)
		if err != nil {
			return err
		}
		start := time.Now()
		out, err := failover.probe().run(ctx, in.fleet, planEnv{journal: j})
		wall := time.Since(start)
		if cerr := j.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		q, err := out.quality()
		if err != nil {
			return err
		}
		r.res.Attempted++
		if q.hash != r.first[in.seed].quality.hash {
			r.res.fail("failover input %d: plan resumed from its journal differs from the plan that wrote it", in.idx)
		}
		r.res.setOnly("checkpoint.resume_plan_s", wall.Seconds(), "s", 1)
		return nil
	}

	fleet1k := &planWorkload{
		name:   "fleet1k",
		inputs: sz.fleetInputs,
		gen:    func(seed int64) (fleet, error) { return genScale(sz.scaleApps, sz.scaleWeeks, time.Hour, seed) },
		probe:  func() pipeline { return fleetPipeline(sz) },
	}
	fleet1k.op = pipelineOp(fleet1k.probe, nil)
	fleet1k.only = func(ctx context.Context, r *planRun) error {
		d, err := fleet1k.probe().partitionPreview(ctx, r.probeOut.translation)
		r.res.setOnly("partition.split_s", d.Seconds(), "s", 1)
		return err
	}
	return map[string]*planWorkload{"table1": table1, "failover": failover, "fleet1k": fleet1k}
}

// pipelineOp is the operation of a workload that drives core.Framework
// itself. journalFor, when set, opens the plan's checkpoint journal
// inside the timed part, where a CLI run pays for it too.
func pipelineOp(pipe func() pipeline, journalFor func(*planInput, planEnv) (*journal, error)) planOp {
	return func(ctx context.Context, in *planInput, env planEnv) (func() (checked, error), error) {
		p := pipe()
		if journalFor != nil {
			j, err := journalFor(in, env)
			if err != nil {
				return nil, err
			}
			env.journal = j
		}
		out, err := p.run(ctx, in.fleet, env)
		if env.journal != nil {
			if cerr := env.journal.close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return nil, err
		}
		return func() (checked, error) {
			q, err := out.quality()
			if err != nil {
				return checked{}, err
			}
			b, err := out.bound(p)
			if err != nil {
				return checked{}, err
			}
			return checked{quality: q, bound: b}, verifyPlan(out)
		}, nil
	}
}

// planRun is the state of one run of a plan workload.
type planRun struct {
	w      *planWorkload
	opts   runOpts
	res    *runResult
	inputs []planInput
	spans  *spanLog
	// first holds the checked result of each distinct input's first plan,
	// by input seed. The same input must plan to the same bytes every
	// time, at any worker count; the quality metrics are taken over these.
	first    map[int64]checked
	probeOut *planOut
}

// setupReps is how often set-up is repeated; setup_s is the median.
const setupReps = 5

func (w *planWorkload) run(ctx context.Context, opts runOpts, res *runResult) error {
	r := &planRun{w: w, opts: opts, res: res, first: map[int64]checked{}}
	reps := setupReps
	if opts.traced {
		reps = 1
	}
	var setups []float64
	var genS float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		var err error
		if r.inputs, genS, err = genInputs(opts.seed, w.inputs, w.gen); err != nil {
			return err
		}
		if w.prepare != nil {
			if err := w.prepare(); err != nil {
				return err
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	res.InputsCapped = totalCapped(r.inputs)

	// One discarded warm-up: the first plan pays for page faults, pool
	// fills and lazy initialisation no later plan sees.
	warm, ok := r.once(ctx, &r.inputs[0], planEnv{})
	if !ok {
		return nil // the failure is recorded; there is nothing steady to measure
	}

	if opts.traced {
		if err := r.traced(ctx, genS, warm.wall); err != nil {
			return err
		}
	} else {
		r.untraced(ctx, median(setups), len(setups))
	}
	pairs := map[string]string{}
	for seed, c := range r.first {
		pairs[fmt.Sprint(seed)] = fmt.Sprintf("%016x", c.quality.hash)
	}
	res.Digest = digest(pairs)
	return nil
}

// opStat is what one timed operation cost.
type opStat struct {
	wall    float64 // seconds
	alloc   uint64  // bytes allocated
	mallocs uint64
	gcs     uint32
}

// exec runs the timed part of one operation. ok is false when it failed
// (which exec has then recorded).
func (r *planRun) exec(ctx context.Context, in *planInput, env planEnv) (opStat, func() (checked, error), bool) {
	r.res.Attempted++
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	check, err := r.w.op(ctx, in, env)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		r.res.fail("%s input %d (seed %d): %v", r.w.name, in.idx, in.seed, err)
		return opStat{}, nil, false
	}
	return opStat{wall: wall.Seconds(), alloc: after.TotalAlloc - before.TotalAlloc,
		mallocs: after.Mallocs - before.Mallocs, gcs: after.NumGC - before.NumGC}, check, true
}

// verify runs an operation's checks (not timed; its span shares the
// repetition's trace but is no child of it) and compares the plan with
// the first plan of the same input.
func (r *planRun) verify(in *planInput, env planEnv, check func() (checked, error)) bool {
	var c checked
	if _, err := env.spans.timed(env.trace, 0, "bench.verify", func() (err error) {
		c, err = check()
		return err
	}); err != nil {
		r.res.fail("%s input %d (seed %d): %v", r.w.name, in.idx, in.seed, err)
		return false
	}
	if first, seen := r.first[in.seed]; !seen {
		r.first[in.seed] = c
	} else if first.quality.hash != c.quality.hash {
		r.res.fail("%s input %d (seed %d): plan differs from the first plan of the same input", r.w.name, in.idx, in.seed)
		return false
	}
	return true
}

func (r *planRun) once(ctx context.Context, in *planInput, env planEnv) (opStat, bool) {
	st, check, ok := r.exec(ctx, in, env)
	return st, ok && r.verify(in, env, check)
}

// loop plans inputs in order until the operations' own wall times add up
// to budget seconds (or limit operations ran, when limit > 0) and
// returns what each successful operation cost. With late set,
// verification waits until the loop is over, so that a CPU profile of
// the loop holds the program's work and not the harness's checks.
func (r *planRun) loop(ctx context.Context, budget float64, limit int, late bool, env func(i int) (planEnv, int)) []opStat {
	var stats []opStat
	var pending []func() bool
	measured := 0.0
	for i := 0; measured < budget && (limit == 0 || i < limit); i++ {
		in := &r.inputs[i%len(r.inputs)]
		e, root := env(i)
		st, check, ok := r.exec(ctx, in, e)
		r.spans.done(root)
		if !ok {
			measured += 1 // a failing plan must not spin the loop forever
			continue
		}
		measured += st.wall
		verify := func() bool { return r.verify(in, e, check) }
		if late {
			stats = append(stats, st)
			pending = append(pending, verify)
		} else if verify() {
			stats = append(stats, st)
		}
	}
	for _, verify := range pending {
		verify()
	}
	return stats
}

func walls(stats []opStat) []float64 {
	out := make([]float64, len(stats))
	for i, st := range stats {
		out[i] = st.wall
	}
	return out
}

func (r *planRun) untraced(ctx context.Context, setupS float64, setupN int) {
	runtime.GC()
	stats := r.loop(ctx, r.opts.seconds, 0, false, func(int) (planEnv, int) { return planEnv{}, 0 })
	if len(stats) == 0 {
		return
	}
	res, w := r.res, walls(stats)
	alloc := 0.0
	for _, st := range stats {
		alloc += float64(st.alloc)
	}
	res.set("setup_s", setupS, "s", setupN)
	res.set("op_wall_s", median(w), "s", len(w))
	// Plans run one at a time, so their rate is the inverse of their wall
	// time; the median keeps one slow plan on a busy host out of it.
	res.set("ops_per_s", 1/median(w), "1/s", len(w))
	r.qualityMetrics()
	res.set("alloc_mb_per_op", alloc/1e6/float64(len(stats)), "MB", len(stats))
	res.set("peak_rss_mb", peakRSSMB(), "MB", 0)
}

// qualityMetrics reports what the plans bought, over each distinct
// input's first plan, so the figures do not depend on how many plans a
// faster or slower commit fits into the run.
func (r *planRun) qualityMetrics() {
	var t qualityTally
	for _, in := range r.inputs {
		if c, ok := r.first[in.seed]; ok {
			t.add(c.quality.servers, c.quality.cRequ, c.bound)
		}
	}
	t.report(r.res)
}

// qualityTally sums plans' outcomes and their references.
type qualityTally struct {
	n                      int
	servers, cRequ, pooled float64
}

func (t *qualityTally) add(servers int, cRequ float64, b bound) {
	t.n++
	t.servers += float64(servers)
	t.cRequ += cRequ
	t.pooled += b.pooled
}

// report sets the four quality metrics. The raw means are Table I's
// columns; the two ratios divide by the capacity one perfect pool of the
// same apps would need, which takes most of the fleet-to-fleet variation
// out and leaves how well the placement packed.
func (t *qualityTally) report(res *runResult) {
	if t.n == 0 || t.pooled == 0 {
		return
	}
	res.set("servers_used", t.servers/float64(t.n), "servers", t.n)
	res.set("c_requ_cpu", t.cRequ/float64(t.n), "CPUs", t.n)
	res.set("servers_per_lb", t.servers/(t.pooled/serverCPUs), "ratio", t.n)
	res.set("c_requ_per_pooled", t.cRequ/t.pooled, "ratio", t.n)
}

// traced produces the per-layer metrics: the same plans once without and
// once with tracing (the program's counters through its Hooks fields,
// harness spans, a CPU profile), one counting repetition on one core,
// then direct probes of the layers.
func (r *planRun) traced(ctx context.Context, genS, warm float64) error {
	res, w := r.res, r.w
	r.spans = newSpanLog()

	runtime.GC()
	plain := r.loop(ctx, r.opts.seconds/2, 0, false, func(int) (planEnv, int) { return planEnv{}, 0 })
	if len(plain) == 0 {
		return nil
	}

	prof, err := startCPUProfile()
	if err != nil {
		return err
	}
	live := newCounters()
	withTrace := r.loop(ctx, math.Inf(1), len(plain), true, func(i int) (planEnv, int) {
		root := r.spans.open(i+1, 0, "bench."+w.name+".rep")
		return planEnv{hooks: live.hooks(), spans: r.spans, trace: i + 1, parent: root}, root
	})
	shares, err := prof.stop()
	if err != nil {
		return err
	}
	if len(withTrace) != len(plain) {
		return nil // a traced plan failed and is recorded
	}

	// Counts come from one plan on one core with one worker, where the
	// order of work is fixed and the counters repeat exactly. Its plan
	// must be byte-identical to the parallel plan of the same input.
	count := newCounters()
	procs := runtime.GOMAXPROCS(1)
	oneCore, ok := r.once(ctx, &r.inputs[0], planEnv{workers: 1, hooks: count.hooks()})
	runtime.GOMAXPROCS(procs)
	if !ok {
		return nil
	}
	c := count.snapshot()
	for metric, name := range countedBy {
		v, ok := c[name]
		if !ok {
			res.Absent = append(res.Absent, name)
		}
		res.set(metric, float64(v), "count", 1)
	}
	sort.Strings(res.Absent)
	res.set("placement.eval_cache_hit_ratio", hitRatio(c, "placement_eval_cache"), "ratio", 1)
	res.set("placement.shared_cache_hit_ratio", hitRatio(c, "placement_shared_cache"), "ratio", 1)
	res.set("serve.dedup_hits", 0, "count", 0)
	res.set("serve.shed", 0, "count", 0)

	// The probe plan: this workload's base plan on the first input, run
	// by the harness so it has the assignment in hand.
	probeRoot := r.spans.open(0, 0, "bench.probe")
	pipe := w.probe()
	pipe.scenarios = nil
	out, err := pipe.run(ctx, r.inputs[0].fleet, planEnv{spans: r.spans, parent: probeRoot})
	r.spans.done(probeRoot)
	if err != nil {
		return fmt.Errorf("bench: probe plan: %w", err)
	}
	r.probeOut = out
	if err := layerProbes(res, out, pipe, r.inputs[0].fleet, r.opts); err != nil {
		return err
	}

	var gcs, mallocs float64
	for _, st := range plain {
		gcs += float64(st.gcs)
		mallocs += float64(st.mallocs)
	}
	n := float64(len(plain))
	res.set("workload.generate_s", genS, "s", len(r.inputs))
	res.set("parallel.speedup", oneCore.wall/withTrace[0].wall, "x", procs)
	res.set("telemetry.overhead_share", sum(walls(withTrace))/sum(walls(plain))-1, "share", len(plain))
	for _, l := range layers {
		res.set(l+".cpu_share", shares[l], "share", 0)
	}
	res.set("runtime.gc_cycles", gcs/n, "count", len(plain))
	res.set("runtime.allocs_per_op", mallocs/n, "count", len(plain))
	res.set("runtime.first_rep_s", warm, "s", 1)

	if w.only != nil {
		if err := w.only(ctx, r); err != nil {
			return err
		}
	}
	return writeSpans(r.spans, res, r.opts.workDir)
}

// hitRatio is hits / (hits + misses) of the cache whose counters start
// with prefix, 0 before any lookup.
func hitRatio(c map[string]int64, prefix string) float64 {
	h, m := c[prefix+"_hits_total"], c[prefix+"_misses_total"]
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// stageOnly reports the median length of a harness span as a
// workload-only metric.
func (r *planRun) stageOnly(metric, spanName string) {
	if d := r.spans.durations(spanName); len(d) > 0 {
		r.res.setOnly(metric, median(d), "s", len(d))
	}
}

// countedBy maps each count metric to the program counter it reads.
var countedBy = map[string]string{
	"portfolio.cap_iterations":         "portfolio_cap_iterations_total",
	"sim.searches":                     "sim_searches_total",
	"sim.search_passes":                "sim_search_passes_total",
	"sim.search_iterations":            "sim_search_iterations_total",
	"sim.batch_lanes":                  "sim_batch_lanes_total",
	"sim.replay_slots":                 "sim_replay_slots_total",
	"placement.ga_generations":         "ga_generations_total",
	"placement.offspring_evaluated":    "ga_offspring_evaluated_total",
	"placement.shared_cache_evictions": "placement_shared_cache_evictions_total",
	"placement.hier_partitions":        "hier_partitions_solved_total",
	"failure.scenarios":                "failure_scenarios_total",
	"failure.infeasible":               "failure_infeasible_scenarios_total",
	"failure.retries":                  "resilience_retries_total",
	"checkpoint.records":               "checkpoint_records_written_total",
}

// layerProbes times the layers directly on the probe plan: the simulator
// and placement on its per-server app groups, the trace codec on its
// fleet, checkpoint and lease on the run's own disk.
func layerProbes(res *runResult, out *planOut, pipe pipeline, f fleet, opts runOpts) error {
	sz := opts.size
	apps := len(f)
	res.set("portfolio.translate_s", out.stages["core.translate"].Seconds(), "s", 1)
	res.set("portfolio.translate_us_per_app", out.stages["core.translate"].Seconds()*1e6/float64(apps), "us", apps)
	res.set("placement.consolidate_s", out.stages["core.consolidate"].Seconds(), "s", 1)

	sp, err := probeSim(out, sz.probeGroups)
	if err != nil {
		return fmt.Errorf("bench: sim probe: %w", err)
	}
	res.set("sim.aggregate_us_per_call", sp.aggregateUS, "us", sp.groups)
	res.set("sim.search_us_per_call", sp.searchUS, "us", sp.groups)
	res.set("sim.replay_ns_per_slot", sp.replayNsPerSlot, "ns", sp.groups)
	res.set("sim.batch_ns_per_lane_slot", sp.batchNsPerLaneSlot, "ns", sp.groups)

	pp, err := probePlacement(out)
	if err != nil {
		return fmt.Errorf("bench: placement probe: %w", err)
	}
	b, err := out.bound(pipe)
	if err != nil {
		return err
	}
	res.set("placement.evaluate_cold_us", pp.evaluateColdUS, "us", 1)
	res.set("placement.evaluate_warm_us", pp.evaluateWarmUS, "us", 1)
	res.set("placement.ffd_servers", float64(pp.ffdServers), "servers", 1)
	res.set("placement.lb_servers", float64(b.lbServers), "servers", 1)

	start := time.Now()
	csv, err := encodeCSV(f)
	if err != nil {
		return err
	}
	encode := time.Since(start).Seconds()
	start = time.Now()
	if _, err := decodeCSV(csv); err != nil {
		return err
	}
	decode := time.Since(start).Seconds()
	mb := float64(len(csv)) / 1e6
	res.set("trace.csv_encode_mbps", mb/encode, "MB/s", 1)
	res.set("trace.csv_decode_mbps", mb/decode, "MB/s", 1)

	cp, err := probeCheckpoint(opts.workDir, sz.probeCycles)
	if err != nil {
		return fmt.Errorf("bench: checkpoint probe: %w", err)
	}
	res.set("checkpoint.append_us", cp.appendUS, "us", sz.probeCycles)
	res.set("checkpoint.lookup_us", cp.lookupUS, "us", sz.probeCycles)
	res.set("checkpoint.open_resume_ms", cp.openResumeMS, "ms", 1)
	lp, err := probeLease(opts.workDir, sz.probeCycles)
	if err != nil {
		return fmt.Errorf("bench: lease probe: %w", err)
	}
	res.set("lease.acquire_us", lp.acquireUS, "us", sz.probeCycles)
	res.set("lease.renew_us", lp.renewUS, "us", sz.probeCycles)
	res.set("lease.release_us", lp.releaseUS, "us", sz.probeCycles)
	return nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
