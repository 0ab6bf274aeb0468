package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"os"
	"time"

	"ropus/internal/checkpoint"
	"ropus/internal/core"
	"ropus/internal/obslog"
	"ropus/internal/placement"
	"ropus/internal/planner"
	"ropus/internal/portfolio"
	"ropus/internal/qos"
	"ropus/internal/report"
	"ropus/internal/resilience"
	"ropus/internal/scenario"
	"ropus/internal/sim"
	"ropus/internal/telemetry"
	"ropus/internal/topology"
	"ropus/internal/trace"
	"ropus/internal/wlmgr"
	"ropus/internal/workload"
)

// withTelemetry runs body with the hooks built from the parsed
// telemetry flags and flushes the requested output files afterwards,
// also on the error and cancellation paths, so aborted runs still
// leave evidence behind. The -timeout flag bounds body's context, and
// a run that was cancelled (by timeout or signal) exits non-zero even
// when the pipeline degraded gracefully to a partial result.
//
// The run's trace ID is derived from the subcommand name and its
// result-determining seed, so two invocations of the same seeded
// command correlate under the same ID across logs, spans, and the
// flight recorder — and a re-run reproduces the ID along with the
// results.
func withTelemetry(ctx context.Context, o *telemetryOpts, name string, seed int64, body func(ctx context.Context, h telemetry.Hooks) error) error {
	ctx, cancel := o.runContext(ctx)
	defer cancel()
	h := o.hooks()
	ctx = telemetry.WithTrace(ctx, telemetry.TraceContext{TraceID: telemetry.SeedTraceID(name, seed)})
	ctx = obslog.Into(ctx, o.logger)
	o.logger.LogAttrs(ctx, slog.LevelInfo, "run.start",
		slog.String("command", name), slog.Int64("seed", seed))
	start := time.Now()
	err := body(ctx, h)
	if ferr := o.flush(); err == nil {
		err = ferr
	}
	if err == nil && ctx.Err() != nil {
		err = fmt.Errorf("run cancelled: %w", context.Cause(ctx))
	}
	level, attrs := slog.LevelInfo, []slog.Attr{
		slog.String("command", name),
		slog.Bool("ok", err == nil),
		slog.Any("elapsed_seconds", obslog.Volatile{Value: time.Since(start).Seconds()}),
	}
	if err != nil {
		level = slog.LevelError
		attrs = append(attrs, slog.String("error", err.Error()))
	}
	o.logger.LogAttrs(ctx, level, "run.finish", attrs...)
	return err
}

// qosFlags registers the application-QoS flags shared by several
// subcommands and returns a builder for the resulting AppQoS.
func qosFlags(fs *flag.FlagSet) func() qos.AppQoS {
	var (
		uLow  = fs.Float64("ulow", 0.5, "utilization of allocation for ideal performance")
		uHigh = fs.Float64("uhigh", 0.66, "utilization of allocation ceiling for acceptable performance")
		uDegr = fs.Float64("udegr", 0.9, "utilization of allocation ceiling during degradation")
		m     = fs.Float64("m", 97, "percent of measurements that must be acceptable")
		tdegr = fs.Duration("tdegr", 30*time.Minute, "max contiguous degradation (0 = unlimited)")
	)
	return func() qos.AppQoS {
		return qos.AppQoS{ULow: *uLow, UHigh: *uHigh, UDegr: *uDegr, MPercent: *m, TDegr: *tdegr}
	}
}

func loadTraces(path string) (trace.Set, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.ReadCSV(f)
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	var (
		spiky    = fs.Int("spiky", 2, "number of spiky applications")
		bursty   = fs.Int("bursty", 8, "number of bursty applications")
		smooth   = fs.Int("smooth", 16, "number of smooth applications")
		weeks    = fs.Int("weeks", 4, "weeks of history")
		interval = fs.Duration("interval", trace.DefaultInterval, "measurement interval")
		seed     = fs.Int64("seed", 2006, "generator seed")
		out      = fs.String("o", "", "output CSV file (default stdout)")
		batch    = fs.Int("batch", 0, "number of overnight batch applications")
		profiles = fs.String("profiles", "", "JSON profile file overriding the class mix")
		topoOut  = fs.String("topology-out", "", "also write a synthetic topology JSON over the pool's servers (srv-01...)")
		zones    = fs.Int("zones", 2, "zones in the synthetic topology")
		racks    = fs.Int("racks-per-zone", 2, "racks per zone in the synthetic topology")
		power    = fs.Int("power-domains", 0, "power domains striped across the pool (0 = none)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var set trace.Set
	var err error
	if *profiles != "" {
		f, err := os.Open(*profiles)
		if err != nil {
			return err
		}
		defer f.Close()
		ps, err := workload.ReadProfiles(f)
		if err != nil {
			return err
		}
		set, err = workload.FleetFromProfiles(ps, *weeks, *interval, *seed)
		if err != nil {
			return err
		}
	} else {
		set, err = workload.Fleet(workload.FleetConfig{
			Spiky: *spiky, Bursty: *bursty, Smooth: *smooth, Batch: *batch,
			Weeks: *weeks, Interval: *interval, Seed: *seed,
		})
		if err != nil {
			return err
		}
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := trace.WriteCSV(w, set); err != nil {
		return err
	}
	if *out != "" {
		fmt.Printf("wrote %d traces x %d samples to %s (total peak %.1f CPUs)\n",
			len(set), set[0].Len(), *out, set.TotalPeak())
	}
	if *topoOut != "" {
		// The framework builds one candidate server per application
		// (srv-01...), so the synthetic topology covers exactly the pool a
		// failover run of these traces will see.
		topo, err := topology.Synthesize(topology.GenConfig{
			Servers: len(set), Zones: *zones, RacksPerZone: *racks, PowerDomains: *power,
		})
		if err != nil {
			return err
		}
		tf, err := os.Create(*topoOut)
		if err != nil {
			return err
		}
		defer tf.Close()
		if err := topo.WriteJSON(tf); err != nil {
			return err
		}
		fmt.Printf("wrote topology (%d zones x %d racks, %d power domains) to %s\n",
			*zones, *racks, *power, *topoOut)
	}
	return nil
}

func cmdTranslate(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("translate", flag.ContinueOnError)
	buildQoS := qosFlags(fs)
	topts := telemetryFlags(fs)
	var (
		in    = fs.String("traces", "", "input trace CSV (required)")
		theta = fs.Float64("theta", 0.6, "CoS2 resource access probability")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("translate: -traces is required")
	}
	set, err := loadTraces(*in)
	if err != nil {
		return err
	}
	q := buildQoS()
	return withTelemetry(ctx, topts, "translate", 0, func(ctx context.Context, h telemetry.Hooks) error {
		fmt.Printf("%-8s %10s %10s %10s %10s %12s %10s\n",
			"app", "p", "Dmax", "DnewMax", "maxAlloc", "reduction%", "degraded%")
		for _, tr := range set {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("translate: %w", err)
			}
			part, err := portfolio.TranslateCtx(ctx, tr, q, *theta, h)
			if err != nil {
				return err
			}
			fmt.Printf("%-8s %10.3f %10.2f %10.2f %10.2f %12.2f %10.2f\n",
				tr.AppID, part.P, part.DMax, part.DNewMax, part.MaxAllocation(),
				part.MaxCapReduction()*100, part.DegradedFraction(tr)*100)
		}
		return nil
	})
}

// frameworkOpts holds the parsed pool/framework flags. The knobs that
// determine results (theta, deadline, cpus, ga-seed, hierarchical
// partitioning) feed the checkpoint run hash via fold; workers and
// cache size deliberately do not, so a journal can be resumed at any
// parallelism.
type frameworkOpts struct {
	theta    *float64
	deadline *time.Duration
	cpus     *int
	seed     *int64
	hier     *bool
	partApps *int
	workers  *int
	cacheMB  *int64
	// topo, when set by a subcommand before build, makes the
	// hierarchical stitch rack-aware. It is not a flag of its own: the
	// subcommands that accept -topology load it themselves.
	topo *topology.Topology
}

// frameworkFlags registers the pool/framework flags.
func frameworkFlags(fs *flag.FlagSet) *frameworkOpts {
	return &frameworkOpts{
		theta:    fs.Float64("theta", 0.6, "CoS2 resource access probability"),
		deadline: fs.Duration("deadline", time.Hour, "CoS2 make-up deadline"),
		cpus:     fs.Int("cpus", 16, "CPUs per server"),
		seed:     fs.Int64("ga-seed", 42, "genetic search seed"),
		hier:     fs.Bool("hierarchical", false, "consolidate hierarchically: cluster the fleet into sub-pools by demand correlation, solve each independently, stitch the sub-plans"),
		partApps: fs.Int("partition-apps", 64, "max applications per sub-pool with -hierarchical"),
		workers:  fs.Int("workers", 0, "parallel failure-sweep (and sub-pool solve) workers (0 = GOMAXPROCS, 1 = sequential; results are identical)"),
		cacheMB:  fs.Int64("sim-cache-mb", 0, "shared simulation cache bound in MiB (0 = default, negative disables)"),
	}
}

// maxSimCacheMB is the largest -sim-cache-mb whose byte count fits an
// int64.
const maxSimCacheMB = math.MaxInt64 >> 20

// simCacheBytes converts a -sim-cache-mb value to the store's byte
// bound: 0 selects the default, a negative value disables sharing, and
// a value whose byte count would overflow is an error, not a wrapped
// bound.
func simCacheBytes(mb int64) (int64, error) {
	switch {
	case mb < 0:
		return -1, nil
	case mb > maxSimCacheMB:
		return 0, fmt.Errorf("-sim-cache-mb %d exceeds the largest bound, %d MiB", mb, int64(maxSimCacheMB))
	}
	return mb << 20, nil
}

// build constructs the framework with the given retry policy and
// checkpoint journal (both may be zero/nil).
func (o *frameworkOpts) build(h telemetry.Hooks, retry resilience.Policy, journal *checkpoint.Journal) (*core.Framework, error) {
	cacheBytes, err := simCacheBytes(*o.cacheMB)
	if err != nil {
		return nil, err
	}
	return core.New(core.Config{
		Commitment:           qos.PoolCommitment{Theta: *o.theta, Deadline: *o.deadline},
		ServerCPUs:           *o.cpus,
		ServerCapacityPerCPU: 1,
		GA:                   placement.DefaultGAConfig(*o.seed),
		Tolerance:            0.1,
		Hooks:                h,
		Workers:              *o.workers,
		CacheBytes:           cacheBytes,
		Retry:                retry,
		Journal:              journal,
		PartitionApps:        o.partitionApps(),
		Topology:             o.topo,
	})
}

// partitionApps is the effective sub-pool bound: the -partition-apps
// value when -hierarchical is set, zero (flat consolidation) otherwise.
func (o *frameworkOpts) partitionApps() int {
	if *o.hier {
		return *o.partApps
	}
	return 0
}

// fold mixes the result-determining framework knobs into a run hash.
// Hierarchical partitioning is folded in only when enabled, so journals
// recorded before the knob existed keep replaying under the defaults.
func (o *frameworkOpts) fold(hash *checkpoint.Hasher) {
	hash.Float(*o.theta).Int(int64(*o.deadline)).Int(int64(*o.cpus)).Int(*o.seed)
	if *o.hier {
		hash.String("hier").Int(int64(*o.partApps))
	}
}

// foldQoS mixes an application QoS into a run hash.
func foldQoS(hash *checkpoint.Hasher, q qos.AppQoS) {
	hash.Float(q.ULow).Float(q.UHigh).Float(q.UDegr).Float(q.MPercent).Int(int64(q.TDegr))
}

// foldTraces mixes the trace contents into a run hash, so a journal
// recorded for one input file cannot silently resume another.
func foldTraces(hash *checkpoint.Hasher, set trace.Set) {
	hash.Int(int64(len(set)))
	for _, tr := range set {
		hash.String(tr.AppID).Int(int64(tr.Interval)).Floats(tr.Samples)
	}
}

// retryOpts holds the parsed retry flags shared by the failover, plan
// and serve subcommands.
type retryOpts struct {
	retries  *int
	deadline *time.Duration
}

func retryFlags(fs *flag.FlagSet) *retryOpts {
	return &retryOpts{
		retries:  fs.Int("retries", 2, "extra attempts per work unit after a transient failure (0 disables retry)"),
		deadline: fs.Duration("scenario-deadline", 0, "per-attempt deadline for each scenario/step; a timed-out attempt is retried (0 = none)"),
	}
}

// policy builds the production retry policy from the flags.
func (o *retryOpts) policy(h telemetry.Hooks) resilience.Policy {
	return resilience.Production(*o.retries, *o.deadline, h)
}

// resilienceOpts adds crash-safe checkpoint/resume to the retry flags
// for the failover and plan subcommands.
type resilienceOpts struct {
	*retryOpts
	path   *string
	resume *bool
}

func resilienceFlags(fs *flag.FlagSet) *resilienceOpts {
	return &resilienceOpts{
		retryOpts: retryFlags(fs),
		path:      fs.String("checkpoint", "", "crash-safe journal file; completed units are fsync'd as they finish"),
		resume:    fs.Bool("resume", false, "replay completed units from the -checkpoint journal instead of recomputing them"),
	}
}

// journal opens the checkpoint journal bound to runHash, or returns
// nil when checkpointing is disabled. Status is logged to stderr so
// stdout stays byte-identical between interrupted and resumed runs.
func (o *resilienceOpts) journal(ctx context.Context, runHash uint64, h telemetry.Hooks) (*checkpoint.Journal, error) {
	if *o.path == "" {
		if *o.resume {
			return nil, fmt.Errorf("-resume requires -checkpoint")
		}
		return nil, nil
	}
	j, err := checkpoint.Open(*o.path, runHash, *o.resume, h)
	if err != nil {
		return nil, err
	}
	if *o.resume {
		obslog.From(ctx).InfoContext(ctx, "checkpoint.resume",
			slog.Int("replayed", j.Replayed()), slog.String("path", *o.path))
	} else {
		obslog.From(ctx).InfoContext(ctx, "checkpoint.open",
			slog.String("path", *o.path))
	}
	return j, nil
}

func printPlan(plan *placement.Plan, servers []placement.Server) {
	for s, usage := range plan.Usages {
		if len(usage.AppIDs) == 0 {
			continue
		}
		fmt.Printf("  %-8s required %6.2f / %5.1f CPUs  theta' %.4f  apps %v\n",
			servers[s].ID, usage.Required, servers[s].Capacity(), usage.Result.Theta, usage.AppIDs)
	}
}

func cmdPlace(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("place", flag.ContinueOnError)
	buildQoS := qosFlags(fs)
	fwk := frameworkFlags(fs)
	topts := telemetryFlags(fs)
	in := fs.String("traces", "", "input trace CSV (required)")
	diagnose := fs.Bool("diagnose", false, "show the worst resource-access groups per server")
	partitions := fs.Bool("partitions", false, "with -hierarchical: print the sub-pool assignment and exit without placing")
	topoPath := fs.String("topology", "", "topology JSON file; with -hierarchical, sub-pools are stitched rack-first")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("place: -traces is required")
	}
	if *partitions && !*fwk.hier {
		return fmt.Errorf("place: -partitions requires -hierarchical")
	}
	if *topoPath != "" && !*fwk.hier {
		return fmt.Errorf("place: -topology requires -hierarchical")
	}
	if *topoPath != "" {
		tb, err := os.ReadFile(*topoPath)
		if err != nil {
			return err
		}
		if fwk.topo, err = topology.ReadJSON(bytes.NewReader(tb)); err != nil {
			return err
		}
	}
	set, err := loadTraces(*in)
	if err != nil {
		return err
	}
	return withTelemetry(ctx, topts, "place", *fwk.seed, func(ctx context.Context, h telemetry.Hooks) error {
		f, err := fwk.build(h, resilience.Policy{}, nil)
		if err != nil {
			return err
		}
		q := buildQoS()
		reqs := core.Requirements{Default: qos.Requirement{Normal: q, Failure: q}}
		tr, err := f.Translate(ctx, set, reqs)
		if err != nil {
			return err
		}
		if *partitions {
			groups, err := f.PartitionPreview(ctx, tr)
			if err != nil {
				return err
			}
			fmt.Printf("partitioned %d applications into %d sub-pools (max %d apps each)\n",
				len(set), len(groups), *fwk.partApps)
			for k, ids := range groups {
				fmt.Printf("  partition %03d: %d apps %v\n", k, len(ids), ids)
			}
			return nil
		}
		cons, err := f.Consolidate(ctx, tr)
		if err != nil {
			return err
		}
		fmt.Printf("consolidated %d applications onto %d servers (sum of peak allocations %.1f CPUs, required %.1f CPUs)\n",
			len(set), cons.ServersUsed(), tr.CPeakTotal(), cons.CRequTotal())
		if cons.Hier != nil {
			printHier(cons.Hier)
		}
		printPlan(cons.Plan, cons.Problem.Servers)
		if *diagnose {
			if err := printDiagnostics(cons); err != nil {
				return err
			}
		}
		return nil
	})
}

// printHier summarizes a hierarchical consolidation: one line per
// sub-pool, then the rack placements when the stitch was rack-aware.
func printHier(hier *placement.HierPlan) {
	fmt.Printf("hierarchical: %d sub-pools solved independently and stitched\n", len(hier.Partitions))
	for _, p := range hier.Partitions {
		rack := p.Rack
		if rack == "" {
			rack = "-"
		}
		fmt.Printf("  partition %03d: %3d apps on %2d servers  rack %-10s required %7.2f CPUs\n",
			p.Index, len(p.AppIDs), p.ServersUsed, rack, p.Required)
	}
	for _, r := range hier.Racks {
		fmt.Printf("  rack %-10s %2d servers used by partitions %v\n", r.Rack, r.Servers, r.Partitions)
	}
}

// printDiagnostics shows where each used server earns or loses its
// resource access probability.
func printDiagnostics(cons *core.Consolidation) error {
	fmt.Println("per-server resource access diagnostics:")
	for s, usage := range cons.Plan.Usages {
		if len(usage.AppIDs) == 0 {
			continue
		}
		workloads := make([]sim.Workload, 0, len(usage.AppIDs))
		for _, id := range usage.AppIDs {
			for _, a := range cons.Problem.Apps {
				if a.ID == id {
					workloads = append(workloads, a.Workload)
				}
			}
		}
		agg, err := sim.NewAggregate(workloads)
		if err != nil {
			return err
		}
		diag, err := agg.Diagnose(sim.Config{
			Capacity:      usage.Required,
			Commitment:    cons.Problem.Commitment,
			SlotsPerDay:   cons.Problem.SlotsPerDay,
			DeadlineSlots: cons.Problem.DeadlineSlots,
		})
		if err != nil {
			return err
		}
		fmt.Printf("  %-8s %s\n", cons.Problem.Servers[s].ID, diag)
	}
	return nil
}

func cmdFailover(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("failover", flag.ContinueOnError)
	buildQoS := qosFlags(fs)
	fwk := frameworkFlags(fs)
	ropts := resilienceFlags(fs)
	topts := telemetryFlags(fs)
	var (
		in       = fs.String("traces", "", "input trace CSV (required)")
		failM    = fs.Float64("fail-m", 97, "failure-mode percent of acceptable measurements")
		failTDeg = fs.Duration("fail-tdegr", 30*time.Minute, "failure-mode max contiguous degradation")
		asJSON   = fs.Bool("json", false, "emit a JSON report instead of text")
		scenPath = fs.String("scenarios", "", "scenario DSL JSON file: named correlated-failure scenarios swept after the single-failure analysis")
		topoPath = fs.String("topology", "", "topology JSON file resolving the scenario file's domain references")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("failover: -traces is required")
	}
	if *topoPath != "" && *scenPath == "" {
		return fmt.Errorf("failover: -topology is only meaningful with -scenarios")
	}
	set, err := loadTraces(*in)
	if err != nil {
		return err
	}
	var (
		scenDoc   *scenario.Doc
		scenBytes []byte
		topo      *topology.Topology
		topoBytes []byte
	)
	if *scenPath != "" {
		if scenBytes, err = os.ReadFile(*scenPath); err != nil {
			return err
		}
		if scenDoc, err = scenario.ReadJSON(bytes.NewReader(scenBytes)); err != nil {
			return err
		}
	}
	if *topoPath != "" {
		if topoBytes, err = os.ReadFile(*topoPath); err != nil {
			return err
		}
		if topo, err = topology.ReadJSON(bytes.NewReader(topoBytes)); err != nil {
			return err
		}
	}
	return withTelemetry(ctx, topts, "failover", *fwk.seed, func(ctx context.Context, h telemetry.Hooks) error {
		normal := buildQoS()
		failQoS := normal
		failQoS.MPercent = *failM
		failQoS.TDegr = *failTDeg
		hash := checkpoint.NewHasher().String("failover")
		foldQoS(hash, normal)
		foldQoS(hash, failQoS)
		fwk.fold(hash)
		foldTraces(hash, set)
		// The scenario universe and topology are result-determining:
		// fold the file contents so a journal recorded for one scenario
		// file cannot silently resume another. Plain runs fold nothing,
		// keeping their historical run hashes valid.
		if scenBytes != nil {
			hash.String("scenarios").String(string(scenBytes))
		}
		if topoBytes != nil {
			hash.String("topology").String(string(topoBytes))
		}
		j, err := ropts.journal(ctx, hash.Sum(), h)
		if err != nil {
			return err
		}
		defer j.Close()
		f, err := fwk.build(h, ropts.policy(h), j)
		if err != nil {
			return err
		}
		reqs := core.Requirements{Default: qos.Requirement{Normal: normal, Failure: failQoS}}
		var result *core.Report
		if scenDoc != nil {
			specs, err := scenDoc.Compile(topo)
			if err != nil {
				return err
			}
			result, err = f.RunScenarios(ctx, set, reqs, specs, scenDoc.Economics)
			if err != nil {
				return err
			}
		} else {
			result, err = f.Run(ctx, set, reqs)
			if err != nil {
				return err
			}
		}
		if *asJSON {
			return report.JSON(os.Stdout, result)
		}
		return report.Text(os.Stdout, result)
	})
}

func cmdSimulate(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	buildQoS := qosFlags(fs)
	topts := telemetryFlags(fs)
	var (
		in       = fs.String("traces", "", "input trace CSV (required)")
		theta    = fs.Float64("theta", 0.6, "CoS2 resource access probability used for translation")
		capacity = fs.Float64("capacity", 16, "server capacity in CPUs")
		lag      = fs.Int("lag", 1, "workload manager allocation lag in slots")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("simulate: -traces is required")
	}
	set, err := loadTraces(*in)
	if err != nil {
		return err
	}
	return withTelemetry(ctx, topts, "simulate", 0, func(ctx context.Context, h telemetry.Hooks) error {
		q := buildQoS()
		containers := make([]wlmgr.Container, len(set))
		for i, tr := range set {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("simulate: %w", err)
			}
			part, err := portfolio.TranslateCtx(ctx, tr, q, *theta, h)
			if err != nil {
				return err
			}
			containers[i] = wlmgr.Container{Demand: tr, Partition: part}
		}
		res, err := wlmgr.Replay(ctx, *capacity, containers, wlmgr.Options{Lag: *lag, Hooks: h})
		if err != nil {
			return err
		}
		fmt.Printf("workload manager replay at %.1f CPUs, lag %d slot(s); CoS1 overloads: %d\n",
			*capacity, *lag, res.CoS1Overload)
		fmt.Printf("%-8s %12s %12s %12s %10s %10s\n",
			"app", "acceptable%", "degraded%", "violated%", "maxU", "satisfied")
		for _, cs := range res.Containers {
			comp, err := wlmgr.CheckCompliance(cs, q, set[0].Interval)
			if err != nil {
				return err
			}
			fmt.Printf("%-8s %12.2f %12.2f %12.2f %10.3f %10v\n",
				cs.AppID, comp.AcceptableFraction*100, comp.DegradedFraction*100,
				comp.ViolatedFraction*100, comp.MaxUtilization, comp.Satisfied)
		}
		return nil
	})
}

func cmdPlan(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("plan", flag.ContinueOnError)
	buildQoS := qosFlags(fs)
	fwk := frameworkFlags(fs)
	ropts := resilienceFlags(fs)
	topts := telemetryFlags(fs)
	var (
		in      = fs.String("traces", "", "input trace CSV (required)")
		horizon = fs.Int("horizon-weeks", 12, "planning horizon in weeks")
		step    = fs.Int("step-weeks", 4, "evaluation step in weeks (must divide the horizon)")
		pool    = fs.Int("pool-servers", 0, "servers currently in the pool (0 = just report)")
		asJSON  = fs.Bool("json", false, "emit the plan as JSON instead of text")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("plan: -traces is required")
	}
	set, err := loadTraces(*in)
	if err != nil {
		return err
	}
	return withTelemetry(ctx, topts, "plan", *fwk.seed, func(ctx context.Context, h telemetry.Hooks) error {
		q := buildQoS()
		hash := checkpoint.NewHasher().String("plan")
		foldQoS(hash, q)
		fwk.fold(hash)
		hash.Int(int64(*horizon)).Int(int64(*step)).Int(int64(*pool))
		foldTraces(hash, set)
		j, err := ropts.journal(ctx, hash.Sum(), h)
		if err != nil {
			return err
		}
		defer j.Close()
		f, err := fwk.build(h, resilience.Policy{}, nil)
		if err != nil {
			return err
		}
		cfg := planner.Config{
			Framework:    f,
			Requirements: core.Requirements{Default: qos.Requirement{Normal: q, Failure: q}},
			HorizonWeeks: *horizon,
			StepWeeks:    *step,
			PoolServers:  *pool,
			Hooks:        h,
			Retry:        ropts.policy(h),
			Journal:      j,
		}
		plan, err := planner.Run(ctx, cfg, set)
		if err != nil {
			return err
		}
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(plan)
		}
		fmt.Printf("baseline: %d servers, required %.0f CPUs, peak allocations %.0f CPUs\n",
			plan.Baseline.Servers, plan.Baseline.CRequ, plan.Baseline.CPeak)
		fmt.Printf("%8s %10s %12s %12s\n", "+weeks", "servers", "CRequ CPU", "CPeak CPU")
		for _, step := range plan.Steps {
			if !step.Feasible {
				fmt.Printf("%8d %10s %12s %12.0f\n", step.WeeksAhead, "-", "unplaceable", step.CPeak)
				continue
			}
			fmt.Printf("%8d %10d %12.0f %12.0f\n", step.WeeksAhead, step.Servers, step.CRequ, step.CPeak)
		}
		if plan.Truncated {
			fmt.Printf("plan truncated by cancellation: %d of %d horizon steps evaluated\n",
				len(plan.Steps), *horizon / *step)
		}
		if plan.ExhaustedAtWeeks > 0 {
			fmt.Printf("pool of %d servers exhausted %d weeks out\n", *pool, plan.ExhaustedAtWeeks)
		} else if *pool > 0 {
			fmt.Printf("pool of %d servers suffices for the %d-week horizon\n", *pool, *horizon)
		}
		return nil
	})
}
