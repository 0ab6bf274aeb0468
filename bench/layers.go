package main

// layers.go is the harness's only door into the program. Every call into
// a ropus package is made here, through the surfaces ISSUE 11 lists as
// stable, so a refactor underneath the benchmark has one file to follow.
// The rest of the harness sees the plain types declared below.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"ropus/internal/checkpoint"
	"ropus/internal/core"
	"ropus/internal/experiments"
	"ropus/internal/failure"
	"ropus/internal/lease"
	"ropus/internal/placement"
	"ropus/internal/qos"
	"ropus/internal/scenario"
	"ropus/internal/serve"
	"ropus/internal/sim"
	"ropus/internal/telemetry"
	"ropus/internal/trace"
	"ropus/internal/workload"
)

// ---------------------------------------------------------------------
// Inputs: workload, trace, scenario.

// fleet is one generated set of demand traces.
type fleet = trace.Set

// mix is a case-study style fleet: a few apps with long traces.
type mix struct {
	spiky, bursty, smooth int
	weeks                 int
	interval              time.Duration
}

func (m mix) config(seed int64) workload.FleetConfig {
	return workload.FleetConfig{Spiky: m.spiky, Bursty: m.bursty, Smooth: m.smooth,
		Weeks: m.weeks, Interval: m.interval, Seed: seed}
}

func genMix(m mix, seed int64) (fleet, error) { return workload.Fleet(m.config(seed)) }

// genScale is the fleet-scale generator with the default class mix.
func genScale(apps, weeks int, interval time.Duration, seed int64) (fleet, error) {
	return workload.ScaleFleet(workload.ScaleConfig{Apps: apps, Weeks: weeks, Interval: interval, Seed: seed})
}

// capFleet caps every trace whose peak exceeds limit CPUs and reports
// how many it changed. Uncapped, the generator now and then emits an app
// whose allocation (peak/ULow) exceeds one 16-way server, and the whole
// plan fails with "no feasible assignment".
func capFleet(f fleet, limit float64) int {
	capped := 0
	for i, tr := range f {
		if tr.Peak() > limit {
			f[i] = tr.Cap(limit)
			capped++
		}
	}
	return capped
}

func encodeCSV(f fleet) ([]byte, error) {
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, f); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeCSV(data []byte) (fleet, error) { return trace.ReadCSV(bytes.NewReader(data)) }

// scenarioSet is a compiled scenario document.
type scenarioSet struct {
	specs []failure.ScenarioSpec
	econ  *failure.Economics
}

// compileScenarios parses the DSL document and compiles it against the
// topology of the pool the mix consolidates onto.
func compileScenarios(doc string, m mix, zones, racksPerZone, powerDomains int) (*scenarioSet, time.Duration, error) {
	topo, err := workload.FleetTopology(m.config(0), zones, racksPerZone, powerDomains)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	d, err := scenario.ReadJSON(strings.NewReader(doc))
	if err != nil {
		return nil, 0, err
	}
	specs, err := d.Compile(topo)
	if err != nil {
		return nil, 0, err
	}
	return &scenarioSet{specs: specs, econ: d.Economics}, time.Since(start), nil
}

// ---------------------------------------------------------------------
// Telemetry: the program's existing counters, read from outside.

// counters wraps a registry handed to the program through its Hooks
// fields. Untraced runs pass nil hooks instead.
type counters struct{ reg *telemetry.Registry }

func newCounters() *counters { return &counters{reg: telemetry.NewRegistry()} }

func (c *counters) hooks() telemetry.Hooks { return telemetry.New(c.reg, nil) }

// snapshot returns every counter the program registered so far.
func (c *counters) snapshot() map[string]int64 { return c.reg.Snapshot().Counters }

// ---------------------------------------------------------------------
// Plans: experiments, core, placement, failure, checkpoint.

// caseStudyQoS is the paper's case-study requirement (ULow 0.5, UHigh
// 0.66, UDegr 0.9) with the given degradation budget.
func caseStudyQoS(mPercent float64, tdegr time.Duration) qos.AppQoS {
	return experiments.CaseStudyQoS(mPercent, tdegr)
}

// pipeline is the configuration of one Translate → Consolidate [→
// PlanForFailures → PlanForScenarios] plan.
type pipeline struct {
	theta           float64
	normal, failure qos.AppQoS
	ga              placement.GAConfig
	tolerance       float64
	partitionApps   int
	scenarios       *scenarioSet // nil: stop after Consolidate
}

const (
	serverCPUs = 16
	gaSeed     = 42
)

func defaultGA() placement.GAConfig { return placement.DefaultGAConfig(gaSeed) }

// quickGA is the repo's own reduced search (experiments' Quick preset):
// its generation cap keeps run time steady from fleet to fleet, where
// the full search's stagnation rule makes it vary by ±25%.
func quickGA() placement.GAConfig {
	ga := placement.DefaultGAConfig(gaSeed)
	ga.MaxGenerations = 40
	ga.Stagnation = 10
	ga.PopulationSize = 16
	return ga
}

// planEnv is what varies between calls of one pipeline: parallelism,
// telemetry, the journal, and where harness spans go.
type planEnv struct {
	workers int
	hooks   telemetry.Hooks
	journal *journal
	spans   *spanLog
	trace   int // span trace ID (one per repetition)
	parent  int // span the stages hang under
}

// planOut is one finished plan with everything verification and the
// probes need.
type planOut struct {
	translation   *core.Translation
	consolidation *core.Consolidation
	failures      *failure.Report
	scenarios     *failure.MultiReport
	stages        map[string]time.Duration
}

func (p pipeline) requirements() core.Requirements {
	return core.Requirements{Default: qos.Requirement{Normal: p.normal, Failure: p.failure}}
}

func (p pipeline) framework(env planEnv) (*core.Framework, error) {
	cfg := core.Config{
		Commitment:           qos.PoolCommitment{Theta: p.theta, Deadline: time.Hour},
		ServerCPUs:           serverCPUs,
		ServerCapacityPerCPU: 1,
		GA:                   p.ga,
		Tolerance:            p.tolerance,
		Hooks:                env.hooks,
		Workers:              env.workers,
		PartitionApps:        p.partitionApps,
	}
	if env.journal != nil {
		cfg.Journal = env.journal.j
	}
	return core.New(cfg)
}

// run executes the pipeline on a fresh framework (a cold simulation
// cache, as a CLI run would have), with a harness span around each call.
func (p pipeline) run(ctx context.Context, f fleet, env planEnv) (*planOut, error) {
	fw, err := p.framework(env)
	if err != nil {
		return nil, err
	}
	out := &planOut{stages: map[string]time.Duration{}}
	stage := func(name string, fn func() error) error {
		d, err := env.spans.timed(env.trace, env.parent, name, fn)
		out.stages[name] = d
		return err
	}
	if err := stage("core.translate", func() (err error) {
		out.translation, err = fw.Translate(ctx, f, p.requirements())
		return err
	}); err != nil {
		return nil, err
	}
	if err := stage("core.consolidate", func() (err error) {
		out.consolidation, err = fw.Consolidate(ctx, out.translation)
		return err
	}); err != nil {
		return nil, err
	}
	if p.scenarios != nil {
		if err := stage("core.plan_for_failures", func() (err error) {
			out.failures, err = fw.PlanForFailures(ctx, out.translation, out.consolidation)
			return err
		}); err != nil {
			return nil, err
		}
		if err := stage("core.plan_for_scenarios", func() (err error) {
			out.scenarios, err = fw.PlanForScenarios(ctx, out.translation, out.consolidation, p.scenarios.specs, p.scenarios.econ)
			return err
		}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// partitionPreview times the clustering step of the hierarchical search.
func (p pipeline) partitionPreview(ctx context.Context, t *core.Translation) (time.Duration, error) {
	fw, err := p.framework(planEnv{})
	if err != nil {
		return 0, err
	}
	start := time.Now()
	_, err = fw.PartitionPreview(ctx, t)
	return time.Since(start), err
}

// quality is what a plan bought: the numbers Table I reports, plus a
// hash of the full plan document for byte-determinism checks.
type quality struct {
	servers int
	cRequ   float64
	hash    uint64
}

func hashJSON(v any) (uint64, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return 0, err
	}
	return checkpoint.HashBytes(data), nil
}

func (o *planOut) quality() (quality, error) {
	doc := struct {
		Plan, Hier, Failures, Scenarios any
	}{o.consolidation.Plan, o.consolidation.Hier, o.failures, o.scenarios}
	hash, err := hashJSON(doc)
	return quality{servers: o.consolidation.ServersUsed(), cRequ: o.consolidation.CRequTotal(), hash: hash}, err
}

// inconclusive counts the failure scenarios whose analysis errored: they
// prove nothing either way.
func (o *planOut) inconclusive() int {
	n := 0
	if o.failures != nil {
		n += len(o.failures.Errors())
	}
	if o.scenarios != nil {
		n += len(o.scenarios.Errors())
	}
	return n
}

// caseRow is one evaluated Table I case.
type caseRow struct {
	id, servers  int
	cRequ, cPeak float64
}

// table1Out is one Table I: six consolidation cases on one fleet.
type table1Out struct {
	rows []caseRow
	hash uint64
}

// runTable1 is experiments.Table1 with the Quick preset: the computation
// behind the repo's BenchmarkTable1Consolidation.
func runTable1(ctx context.Context, f fleet, workers int, hooks telemetry.Hooks) (*table1Out, error) {
	rows, err := experiments.Table1(ctx, f, experiments.Table1Config{GASeed: gaSeed, Quick: true, Workers: workers, Hooks: hooks})
	if err != nil {
		return nil, err
	}
	out := &table1Out{rows: make([]caseRow, len(rows))}
	for i, r := range rows {
		out.rows[i] = caseRow{id: r.Case.ID, servers: r.Servers, cRequ: r.CRequ, cPeak: r.CPeak}
	}
	out.hash, err = hashJSON(rows)
	return out, err
}

func (o *table1Out) quality() quality {
	q := quality{hash: o.hash}
	for _, r := range o.rows {
		q.servers += r.servers
		q.cRequ += r.cRequ
	}
	return q
}

// table1Pipelines returns the pipeline of each Table I case as
// experiments.Table1 configures it, so the harness can translate the
// same way when it computes lower bounds and checks the rows.
func table1Pipelines() []pipeline {
	ps := make([]pipeline, len(experiments.Table1Cases))
	for i, c := range experiments.Table1Cases {
		q := caseStudyQoS(100-c.MDegr, c.TDegr)
		ps[i] = pipeline{theta: c.Theta, normal: q, failure: q, ga: quickGA(), tolerance: 0.25}
	}
	return ps
}

// ---------------------------------------------------------------------
// Plans seen from outside: what verify.go checks.

// placedServer is one used server of a plan.
type placedServer struct {
	id       string
	capacity float64
	apps     []string
}

// placedPlan is an assignment to re-check: which apps must be placed,
// where they are, the traces to replay and the commitment to meet.
type placedPlan struct {
	label      string
	want       []string // every app that must be placed exactly once
	servers    []placedServer
	workloads  map[string]sim.Workload
	commitment qos.PoolCommitment
	slotsDay   int
	deadline   int
}

func partitionWorkloads(t *core.Translation, failureMode map[string]bool) map[string]sim.Workload {
	out := make(map[string]sim.Workload, len(t.Normal))
	for i, p := range t.Normal {
		if failureMode[p.AppID] {
			p = t.Failure[i]
		}
		out[p.AppID] = sim.Workload{AppID: p.AppID, CoS1: p.CoS1.Samples, CoS2: p.CoS2.Samples}
	}
	return out
}

func usedServers(usages []placement.ServerUsage) []placedServer {
	var out []placedServer
	for _, u := range usages {
		if len(u.AppIDs) > 0 {
			out = append(out, placedServer{id: u.Server.ID, capacity: u.Server.Capacity(), apps: u.AppIDs})
		}
	}
	return out
}

// placed returns the base plan and, for a failover plan, every feasible
// scenario's re-consolidation (affected apps on their failure-mode
// translation, the scenario's θ override applied).
func (o *planOut) placed() []placedPlan {
	prob := o.consolidation.Problem
	base := placedPlan{
		label:      "base",
		want:       o.translation.Traces.IDs(),
		servers:    usedServers(o.consolidation.Plan.Usages),
		workloads:  partitionWorkloads(o.translation, nil),
		commitment: prob.Commitment,
		slotsDay:   prob.SlotsPerDay,
		deadline:   prob.DeadlineSlots,
	}
	plans := []placedPlan{base}
	scenarioPlan := func(label string, affected []string, theta float64, plan *placement.Plan) {
		failed := make(map[string]bool, len(affected))
		for _, id := range affected {
			failed[id] = true
		}
		p := base
		p.label = label
		p.servers = usedServers(plan.Usages)
		p.workloads = partitionWorkloads(o.translation, failed)
		if theta > 0 {
			p.commitment.Theta = theta
		}
		plans = append(plans, p)
	}
	if o.failures != nil {
		for _, s := range o.failures.Scenarios {
			if s.Feasible && s.Plan != nil {
				scenarioPlan("failure "+s.FailedServer, s.AffectedApps, 0, s.Plan)
			}
		}
	}
	if o.scenarios != nil {
		for _, s := range o.scenarios.Scenarios {
			if s.Feasible && s.Plan != nil {
				scenarioPlan("scenario "+s.Name, s.AffectedApps, s.Theta, s.Plan)
			}
		}
	}
	return plans
}

// replayFits replays the apps of one server at the server's capacity
// and reports whether the CoS1 guarantee, θ and the deadline all hold.
func (p *placedPlan) replayFits(s placedServer) (bool, error) {
	group := make([]sim.Workload, len(s.apps))
	for i, id := range s.apps {
		w, ok := p.workloads[id]
		if !ok {
			return false, fmt.Errorf("unknown app %q", id)
		}
		group[i] = w
	}
	agg, err := sim.NewAggregate(group)
	if err != nil {
		return false, err
	}
	res, err := agg.Replay(sim.Config{Capacity: s.capacity, Commitment: p.commitment,
		SlotsPerDay: p.slotsDay, DeadlineSlots: p.deadline})
	if err != nil {
		return false, err
	}
	return res.Fits(p.commitment.Theta), nil
}

// bound is the harness's own reference for one translated fleet.
type bound struct {
	// cos1Peak is the peak of the apps' summed CoS1 allocations. CoS1 is
	// guaranteed, so it is a hard floor: no placement's servers, and no
	// placement's ΣC_requ, can hold less.
	cos1Peak float64
	// pooled is the capacity one unbounded server would need to host all
	// apps together. Pooling nearly always needs less than any split, so
	// it is the reference the quality ratios divide by; it is not a proof
	// (θ is judged per week-and-slot group, and a split can group luckily).
	pooled float64
	// lbServers is the larger of the two over one server's capacity.
	lbServers int
	cPeak     float64
}

func boundOf(t *core.Translation, theta float64, tolerance float64) (bound, error) {
	all := make([]sim.Workload, len(t.Normal))
	for i, p := range t.Normal {
		all[i] = sim.Workload{AppID: p.AppID, CoS1: p.CoS1.Samples, CoS2: p.CoS2.Samples}
	}
	agg, err := sim.NewAggregate(all)
	if err != nil {
		return bound{}, err
	}
	commitment := qos.PoolCommitment{Theta: theta, Deadline: time.Hour}
	cfg := sim.Config{Commitment: commitment, SlotsPerDay: t.Traces[0].SlotsPerDay(),
		DeadlineSlots: commitment.DeadlineSlots(t.Traces[0].Interval)}
	out, err := agg.Search(context.Background(), cfg, agg.TotalPeak()+1, tolerance)
	if err != nil {
		return bound{}, err
	}
	// The search stops within tolerance above the true requirement, so
	// only capacity minus tolerance is certain to be needed.
	need := math.Max(agg.CoS1Peak(), out.Capacity-tolerance)
	return bound{cos1Peak: agg.CoS1Peak(), pooled: out.Capacity,
		lbServers: int(math.Ceil(need/serverCPUs - 1e-9)), cPeak: t.CPeakTotal()}, nil
}

// bound is boundOf for a fleet the harness did not translate itself.
func (p pipeline) bound(ctx context.Context, f fleet) (bound, error) {
	fw, err := p.framework(planEnv{})
	if err != nil {
		return bound{}, err
	}
	t, err := fw.Translate(ctx, f, p.requirements())
	if err != nil {
		return bound{}, err
	}
	return boundOf(t, p.theta, p.tolerance)
}

func (o *planOut) bound(p pipeline) (bound, error) {
	return boundOf(o.translation, p.theta, p.tolerance)
}

func appIDs(f fleet) []string { return f.IDs() }

// ---------------------------------------------------------------------
// Probes: direct timed calls into sim and placement on the per-server
// app groups of a finished plan.

type simProbe struct {
	groups             int
	aggregateUS        float64 // sim.NewAggregate, per call
	searchUS           float64 // Aggregate.Search, per call
	replayNsPerSlot    float64 // Aggregate.Replay
	batchNsPerLaneSlot float64 // Aggregate.ReplayBatch over batchLanes capacities
}

const batchLanes = 15

// probeSim times each simulator entry point on every used server's app
// group (at most maxGroups of them) and reports the median per call.
func probeSim(o *planOut, maxGroups int) (simProbe, error) {
	base := o.placed()[0]
	prob := o.consolidation.Problem
	cfg := sim.Config{Commitment: base.commitment, SlotsPerDay: base.slotsDay, DeadlineSlots: base.deadline}
	tol := prob.Tolerance
	var agg, search, replay, batch []float64
	ctx := context.Background()
	// Repeat each call a few times and keep the fastest: a group is
	// small, and the first call pays for cold caches and pool misses.
	const reps = 5
	best := func(fn func() error) (float64, error) {
		min := 0.0
		for i := 0; i < reps; i++ {
			start := time.Now()
			if err := fn(); err != nil {
				return 0, err
			}
			if d := time.Since(start).Seconds(); i == 0 || d < min {
				min = d
			}
		}
		return min, nil
	}
	capacities := make([]float64, batchLanes)
	results := make([]sim.Result, batchLanes)
	br := sim.NewBatchReplayer()
	for gi, s := range base.servers {
		if gi >= maxGroups {
			break
		}
		group := make([]sim.Workload, len(s.apps))
		for i, id := range s.apps {
			group[i] = base.workloads[id]
		}
		var a *sim.Aggregate
		d, err := best(func() (err error) { a, err = sim.NewAggregate(group); return err })
		if err != nil {
			return simProbe{}, err
		}
		agg = append(agg, d*1e6)
		if d, err = best(func() error { _, err := a.Search(ctx, cfg, s.capacity, tol); return err }); err != nil {
			return simProbe{}, err
		}
		search = append(search, d*1e6)
		rcfg := cfg
		rcfg.Capacity = s.capacity
		if d, err = best(func() error { _, err := a.Replay(rcfg); return err }); err != nil {
			return simProbe{}, err
		}
		slots := float64(a.Slots())
		replay = append(replay, d*1e9/slots)
		for i := range capacities {
			capacities[i] = s.capacity * float64(i+1) / batchLanes
		}
		if d, err = best(func() error { return a.ReplayBatch(br, cfg, capacities, results) }); err != nil {
			return simProbe{}, err
		}
		batch = append(batch, d*1e9/(slots*batchLanes))
	}
	return simProbe{groups: len(agg), aggregateUS: median(agg), searchUS: median(search),
		replayNsPerSlot: median(replay), batchNsPerLaneSlot: median(batch)}, nil
}

type placementProbe struct {
	evaluateColdUS, evaluateWarmUS float64
	ffdServers                     int
}

// probePlacement evaluates the final assignment on an empty simulation
// cache and again on the cache that evaluation filled, and runs the
// first-fit-decreasing baseline on the same problem.
func probePlacement(o *planOut) (placementProbe, error) {
	prob := *o.consolidation.Problem
	prob.Hooks = nil
	prob.Cache = placement.NewSimCache(0)
	var pp placementProbe
	for _, dst := range []*float64{&pp.evaluateColdUS, &pp.evaluateWarmUS} {
		start := time.Now()
		if _, err := placement.Evaluate(&prob, o.consolidation.Plan.Assignment); err != nil {
			return pp, err
		}
		*dst = time.Since(start).Seconds() * 1e6
	}
	// The greedy baseline tries every candidate server for every app; a
	// fresh shared cache answers the many identical empty-server trials.
	prob.Cache = placement.NewSimCache(0)
	plan, err := placement.FirstFitDecreasing(context.Background(), &prob)
	if err != nil {
		return pp, err
	}
	pp.ffdServers = plan.ServersUsed
	return pp, nil
}

// ---------------------------------------------------------------------
// checkpoint and lease.

// journal is an open checkpoint journal on local disk.
type journal struct {
	j    *checkpoint.Journal
	path string
}

func openJournal(path string, runHash uint64, resume bool, hooks telemetry.Hooks) (*journal, error) {
	j, err := checkpoint.Open(path, runHash, resume, hooks)
	if err != nil {
		return nil, err
	}
	return &journal{j: j, path: path}, nil
}

func (j *journal) close() error { return j.j.Close() }

type checkpointProbe struct {
	appendUS, lookupUS float64
	openResumeMS       float64
}

// probeRecord stands in for a journaled unit: a scenario verdict is a
// name, a few server and app lists and a handful of numbers, about 1 KB.
type probeRecord struct {
	Name     string
	Servers  []string
	Apps     []string
	Required []float64
	Feasible bool
}

// probeCheckpoint appends n records to a fresh journal in dir (one
// fsync each), looks each up, then reopens the journal in resume mode.
func probeCheckpoint(dir string, n int) (checkpointProbe, error) {
	path := filepath.Join(dir, "probe.ckpt")
	j, err := checkpoint.Open(path, 1, false, nil)
	if err != nil {
		return checkpointProbe{}, err
	}
	rec := probeRecord{Name: "probe", Feasible: true}
	for i := 0; i < 26; i++ {
		rec.Servers = append(rec.Servers, fmt.Sprintf("srv-%02d", i+1))
		rec.Apps = append(rec.Apps, fmt.Sprintf("app-%02d", i+1))
		rec.Required = append(rec.Required, float64(i)+0.123456789)
	}
	appends := make([]float64, n)
	lookups := make([]float64, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := j.Append("bench.probe", uint64(i), rec); err != nil {
			j.Close()
			return checkpointProbe{}, err
		}
		appends[i] = time.Since(start).Seconds() * 1e6
	}
	for i := 0; i < n; i++ {
		var got probeRecord
		start := time.Now()
		ok, err := j.Lookup("bench.probe", uint64(i), &got)
		lookups[i] = time.Since(start).Seconds() * 1e6
		if err != nil || !ok {
			j.Close()
			return checkpointProbe{}, fmt.Errorf("checkpoint probe: record %d not found: %v", i, err)
		}
	}
	if err := j.Close(); err != nil {
		return checkpointProbe{}, err
	}
	start := time.Now()
	j, err = checkpoint.Open(path, 1, true, nil)
	if err != nil {
		return checkpointProbe{}, err
	}
	resume := time.Since(start).Seconds() * 1e3
	if j.Replayed() != n {
		j.Close()
		return checkpointProbe{}, fmt.Errorf("checkpoint probe: resumed %d of %d records", j.Replayed(), n)
	}
	return checkpointProbe{appendUS: median(appends), lookupUS: median(lookups), openResumeMS: resume}, j.Close()
}

type leaseProbe struct{ acquireUS, renewUS, releaseUS float64 }

// probeLease runs n acquire → renew → release cycles in dir.
func probeLease(dir string, n int) (leaseProbe, error) {
	k := &lease.Keeper{Dir: dir, Instance: "bench"}
	acquire := make([]float64, n)
	renew := make([]float64, n)
	release := make([]float64, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		l, err := k.Acquire(fmt.Sprintf("probe-%03d", i))
		if err != nil {
			return leaseProbe{}, err
		}
		acquire[i] = time.Since(start).Seconds() * 1e6
		start = time.Now()
		if err := l.Renew(); err != nil {
			return leaseProbe{}, err
		}
		renew[i] = time.Since(start).Seconds() * 1e6
		start = time.Now()
		if err := l.Release(); err != nil {
			return leaseProbe{}, err
		}
		release[i] = time.Since(start).Seconds() * 1e6
	}
	return leaseProbe{acquireUS: median(acquire), renewUS: median(renew), releaseUS: median(release)}, nil
}

// ---------------------------------------------------------------------
// serve: the in-process server and its /v1/jobs HTTP API.

// tenantWeights are the admission classes the serve workload uses.
var tenantWeights = map[string]int{"gold": 3, "silver": 2, "bronze": 1}

// server is a running in-process planning service.
type server struct {
	addr      string
	executors int
	cancel    context.CancelFunc
	done      chan error
}

// startServer listens on a loopback port with a fresh state directory
// and defaults otherwise (MaxConcurrent = GOMAXPROCS).
func startServer(stateDir string) (*server, error) {
	srv, err := serve.New("127.0.0.1:0", serve.Config{StateDir: stateDir, TenantWeights: tenantWeights})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &server{addr: srv.Addr(), executors: runtime.GOMAXPROCS(0), cancel: cancel, done: make(chan error, 1)}
	go func() { s.done <- srv.Run(ctx) }()
	return s, nil
}

// stop drains the server and waits until Run has returned.
func (s *server) stop() error {
	s.cancel()
	return <-s.done
}

// jobBody encodes one submission. Every result-determining field is
// spelled out, so the harness's own lower bounds use the same numbers
// the job does, not the server's defaults.
func jobBody(kind string, csv []byte, p pipeline) ([]byte, error) {
	q := func(a qos.AppQoS) *serve.QoSSpec {
		return &serve.QoSSpec{ULow: a.ULow, UHigh: a.UHigh, UDegr: a.UDegr, MPercent: a.MPercent, TDegr: serve.Duration(a.TDegr)}
	}
	spec := serve.JobSpec{
		Kind: kind, TracesCSV: string(csv), Theta: p.theta, Deadline: serve.Duration(time.Hour),
		ServerCPUs: serverCPUs, GASeed: gaSeed, QoS: q(p.normal),
	}
	if kind == serve.KindFailover {
		spec.FailureQoS = q(p.failure)
	}
	return json.Marshal(spec)
}

var jobKinds = []string{serve.KindTranslate, serve.KindPlace, serve.KindFailover}

// jobView is GET /v1/jobs/{id} as the harness reads it: the wire format
// is the contract, not the server's Go types.
type jobView struct {
	ID         string           `json:"id"`
	Kind       string           `json:"kind"`
	State      string           `json:"state"`
	Error      string           `json:"error"`
	Progress   map[string]int64 `json:"progress"`
	Result     json.RawMessage  `json:"result"`
	ResultHash string           `json:"resultHash"`
	Submitted  time.Time        `json:"submitted"`
	Started    *time.Time       `json:"started"`
	Finished   *time.Time       `json:"finished"`
}

func (v *jobView) terminal() bool { return v.State == serve.StateDone || v.State == serve.StateFailed }
func (v *jobView) done() bool     { return v.State == serve.StateDone }

// placeResult is the part of a place or failover job's result document
// the harness checks and scores.
type placeResult struct {
	Applications int     `json:"applications"`
	ServersUsed  int     `json:"serversUsed"`
	CRequCPU     float64 `json:"cRequCpu"`
	Servers      []struct {
		ID     string   `json:"id"`
		AppIDs []string `json:"appIds"`
	} `json:"servers"`
	Failures []struct {
		Inconclusive bool `json:"inconclusive"`
		Absorbable   bool `json:"absorbable"`
	} `json:"failures"`
}

// submitJob POSTs a pre-encoded body. code is the HTTP status: 202 a new
// job, 200 an existing one (the dedup path), 429 shed.
func submitJob(client *http.Client, addr string, body []byte, tenant string) (view jobView, code int, err error) {
	req, err := http.NewRequest(http.MethodPost, "http://"+addr+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return view, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Ropus-Tenant", tenant)
	return doJob(client, req)
}

func getJob(client *http.Client, addr, id string) (view jobView, code int, err error) {
	req, err := http.NewRequest(http.MethodGet, "http://"+addr+"/v1/jobs/"+id, nil)
	if err != nil {
		return view, 0, err
	}
	return doJob(client, req)
}

func doJob(client *http.Client, req *http.Request) (view jobView, code int, err error) {
	resp, err := client.Do(req)
	if err != nil {
		return view, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return view, resp.StatusCode, err
	}
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		err = json.Unmarshal(data, &view)
	}
	return view, resp.StatusCode, err
}
