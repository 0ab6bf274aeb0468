// Command experiments regenerates every table and figure of the R-Opus
// paper's evaluation (DSN 2006, section VII) from the synthetic
// case-study fleet and writes them as CSV files plus a human-readable
// summary on stdout.
//
// Usage:
//
//	experiments [-run all|fig3|fig6|fig7|fig8|table1|failover|mix] [-out DIR] [-seed N] [-quick]
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ropus/internal/checkpoint"
	"ropus/internal/experiments"
	"ropus/internal/obslog"
	"ropus/internal/resilience"
	"ropus/internal/telemetry"
)

func main() {
	var (
		run     = flag.String("run", "all", "experiment to run: all, fig3, fig6, fig7, fig8, table1, failover, mix")
		out     = flag.String("out", "results", "output directory for CSV files")
		seed    = flag.Int64("seed", 2006, "workload generator seed")
		quick   = flag.Bool("quick", false, "reduced search budget for smoke runs")
		timeout = flag.Duration("timeout", 0, "cancel the run after this duration (0 = unlimited); telemetry files are still flushed")
		workers = flag.Int("workers", 0, "parallel workers for table1/failover/mix (0 = GOMAXPROCS, 1 = sequential; results are identical)")
		partApp = flag.Int("partition-apps", 0, "hierarchical consolidation: max applications per sub-pool (0 = flat placement)")
		ckpt    = flag.String("checkpoint", "", "crash-safe journal file for table1/failover/mix; completed units are fsync'd as they finish")
		resume  = flag.Bool("resume", false, "replay completed units from the -checkpoint journal instead of recomputing them")
		retries = flag.Int("retries", 2, "extra attempts per work unit after a transient failure (0 disables retry)")
		sdl     = flag.Duration("scenario-deadline", 0, "per-attempt deadline for each case/scenario; a timed-out attempt is retried (0 = none)")
		logFmt  = flag.String("log-format", "json", "structured log encoding on stderr: json, text, or off")
		logLvl  = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	)
	flag.Parse()
	logger := obslog.Discard()
	if *logFmt != "off" {
		logger = obslog.New(os.Stderr, obslog.Options{
			Level:  obslog.ParseLevel(*logLvl),
			Format: *logFmt,
		})
	}
	// SIGINT/SIGTERM and -timeout cancel the compute-heavy experiments;
	// the deferred telemetry flush still writes the sidecar files.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	heal := healOpts{path: *ckpt, resume: *resume, retries: *retries, deadline: *sdl, partitionApps: *partApp}
	if err := realMain(ctx, *run, *out, *seed, *quick, *workers, heal, logger); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// healOpts carries the parsed self-healing flags: retry policy plus
// crash-safe checkpoint/resume for the cancellable experiments.
type healOpts struct {
	path          string
	resume        bool
	retries       int
	deadline      time.Duration
	partitionApps int
}

// journal opens the checkpoint journal, binding it to the knobs that
// determine results (experiment selection, seed, quick) but not to the
// worker count, so a journal resumes at any parallelism. The
// hierarchical partition bound is folded in only when set (> 0), so
// journals written before the knob existed keep replaying. Status is
// logged to stderr to keep stdout byte-identical across
// interrupted/resumed runs.
func (o healOpts) journal(run string, seed int64, quick bool, h telemetry.Hooks, logger *slog.Logger) (*checkpoint.Journal, error) {
	if o.path == "" {
		if o.resume {
			return nil, fmt.Errorf("-resume requires -checkpoint")
		}
		return nil, nil
	}
	hasher := checkpoint.NewHasher().String("experiments").String(run).Int(seed).Bool(quick)
	if o.partitionApps > 0 {
		hasher = hasher.String("hier").Int(int64(o.partitionApps))
	}
	hash := hasher.Sum()
	j, err := checkpoint.Open(o.path, hash, o.resume, h)
	if err != nil {
		return nil, err
	}
	if o.resume {
		logger.Info("checkpoint.resume", slog.Int("replayed", j.Replayed()), slog.String("path", o.path))
	} else {
		logger.Info("checkpoint.open", slog.String("path", o.path))
	}
	return j, nil
}

func realMain(ctx context.Context, run, out string, seed int64, quick bool, workers int, heal healOpts, logger *slog.Logger) error {
	// Correlate the run's logs and spans under a seed-derived trace ID,
	// mirroring the ropus CLI: re-running the same seed reproduces the ID.
	ctx = telemetry.WithTrace(ctx, telemetry.TraceContext{TraceID: telemetry.SeedTraceID("experiments", seed)})
	ctx = obslog.Into(ctx, logger)
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	set, err := experiments.Fleet(seed)
	if err != nil {
		return err
	}
	// Every run records its telemetry alongside the result CSVs: a
	// metrics snapshot (telemetry.json) and a Chrome trace_event file
	// (telemetry_trace.json) for chrome://tracing or Perfetto.
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer()
	hooks := telemetry.New(reg, tracer)
	defer func() {
		if err := writeTelemetry(out, reg, tracer); err != nil {
			logger.Error("telemetry.flush", slog.String("error", err.Error()))
		}
	}()
	journal, err := heal.journal(run, seed, quick, hooks, logger)
	if err != nil {
		return err
	}
	defer journal.Close()
	cfg := experiments.Table1Config{
		GASeed: 42, Quick: quick, PartitionApps: heal.partitionApps,
		Hooks: hooks, Workers: workers,
		Retry: resilience.Production(heal.retries, heal.deadline, hooks), Journal: journal,
	}

	want := func(name string) bool { return run == "all" || run == name }
	ran := false
	if want("fig3") {
		ran = true
		if err := runFig3(out); err != nil {
			return err
		}
	}
	if want("fig6") {
		ran = true
		if err := runFig6(out, set); err != nil {
			return err
		}
	}
	if want("fig7") {
		ran = true
		if err := runSweep(out, set, "fig7", experiments.Fig7, "MaxCapReduction (%)"); err != nil {
			return err
		}
	}
	if want("fig8") {
		ran = true
		if err := runSweep(out, set, "fig8", experiments.Fig8, "degraded measurements (%)"); err != nil {
			return err
		}
	}
	if want("table1") {
		ran = true
		if err := runTable1(ctx, out, set, cfg); err != nil {
			return err
		}
	}
	if want("failover") {
		ran = true
		if err := runFailover(ctx, set, cfg); err != nil {
			return err
		}
	}
	if want("mix") {
		ran = true
		if err := runMix(ctx, out, seed, quick, workers, hooks, resilience.Production(heal.retries, heal.deadline, hooks), journal); err != nil {
			return err
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", run)
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("run cancelled: %w", context.Cause(ctx))
	}
	return nil
}

// writeTelemetry writes the run's metrics snapshot and span trace next
// to the result CSVs.
func writeTelemetry(out string, reg *telemetry.Registry, tracer *telemetry.Tracer) error {
	mf, err := os.Create(filepath.Join(out, "telemetry.json"))
	if err != nil {
		return err
	}
	if err := reg.WriteJSON(mf); err != nil {
		mf.Close()
		return err
	}
	if err := mf.Close(); err != nil {
		return err
	}
	tf, err := os.Create(filepath.Join(out, "telemetry_trace.json"))
	if err != nil {
		return err
	}
	if err := tracer.WriteChromeTrace(tf); err != nil {
		tf.Close()
		return err
	}
	return tf.Close()
}

func writeCSV(path string, header []string, rows [][]string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write(header); err != nil {
		return err
	}
	if err := w.WriteAll(rows); err != nil {
		return err
	}
	w.Flush()
	return w.Error()
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }

func runFig3(out string) error {
	rows, err := experiments.Fig3(0.5, 0.66)
	if err != nil {
		return err
	}
	csvRows := make([][]string, len(rows))
	for i, r := range rows {
		csvRows[i] = []string{fmtF(r.Theta), fmtF(r.Breakpoint), fmtF(r.MaxAllocTrend)}
	}
	path := filepath.Join(out, "fig3.csv")
	if err := writeCSV(path, []string{"theta", "breakpoint_p", "max_alloc_trend"}, csvRows); err != nil {
		return err
	}
	fmt.Println("== Figure 3: sensitivity of breakpoint and max allocation to theta ==")
	fmt.Println("   (Ulow,Uhigh)=(0.5,0.66); trend normalized to theta=0.5)")
	fmt.Printf("%8s %12s %15s\n", "theta", "breakpoint p", "max-alloc trend")
	for _, r := range rows {
		if int(r.Theta*1000)%100 != 0 { // print every 0.1 for readability
			continue
		}
		fmt.Printf("%8.2f %12.3f %15.3f\n", r.Theta, r.Breakpoint, r.MaxAllocTrend)
	}
	fmt.Println("   full curve:", path)
	fmt.Println()
	return nil
}

func runFig6(out string, set experiments.TraceSet) error {
	rows, err := experiments.Fig6(set)
	if err != nil {
		return err
	}
	header := []string{"app"}
	for _, lvl := range experiments.Fig6Levels {
		header = append(header, "p"+strconv.FormatFloat(lvl, 'g', -1, 64))
	}
	csvRows := make([][]string, len(rows))
	for i, r := range rows {
		row := []string{r.AppID}
		for _, v := range r.Percentiles {
			row = append(row, fmtF(v))
		}
		csvRows[i] = row
	}
	path := filepath.Join(out, "fig6.csv")
	if err := writeCSV(path, header, csvRows); err != nil {
		return err
	}
	fmt.Println("== Figure 6: top percentiles of normalized CPU demand (percent of peak) ==")
	fmt.Printf("%3s %-8s %8s %8s %8s %8s %8s\n", "#", "app", "99.9th", "99.5th", "99th", "98th", "97th")
	for i, r := range rows {
		fmt.Printf("%3d %-8s %8.1f %8.1f %8.1f %8.1f %8.1f\n", i+1, r.AppID,
			r.Percentiles[0], r.Percentiles[1], r.Percentiles[2], r.Percentiles[3], r.Percentiles[4])
	}
	fmt.Println("   csv:", path)
	fmt.Println()
	return nil
}

type sweepFn func(experiments.TraceSet, float64) ([]experiments.SweepRow, error)

func runSweep(out string, set experiments.TraceSet, name string, fn sweepFn, label string) error {
	for _, variant := range []struct {
		suffix string
		theta  float64
	}{
		{suffix: "a", theta: 0.95},
		{suffix: "b", theta: 0.60},
	} {
		rows, err := fn(set, variant.theta)
		if err != nil {
			return err
		}
		header := []string{"app", "none", "2h", "1h", "30m"}
		csvRows := make([][]string, len(rows))
		for i, r := range rows {
			row := []string{r.AppID}
			for _, v := range r.Values {
				row = append(row, fmtF(v))
			}
			csvRows[i] = row
		}
		path := filepath.Join(out, name+variant.suffix+".csv")
		if err := writeCSV(path, header, csvRows); err != nil {
			return err
		}
		fmt.Printf("== %s%s: %s, theta=%.2f ==\n", strings.ToUpper(name[:1])+name[1:], variant.suffix, label, variant.theta)
		fmt.Printf("%-8s %8s %8s %8s %8s\n", "app", "none", "2h", "1h", "30m")
		for _, r := range rows {
			fmt.Printf("%-8s %8.2f %8.2f %8.2f %8.2f\n", r.AppID, r.Values[0], r.Values[1], r.Values[2], r.Values[3])
		}
		fmt.Println("   csv:", path)
		fmt.Println()
	}
	return nil
}

func runTable1(ctx context.Context, out string, set experiments.TraceSet, cfg experiments.Table1Config) error {
	start := time.Now()
	rows, err := experiments.Table1(ctx, set, cfg)
	if err != nil {
		return err
	}
	csvRows := make([][]string, len(rows))
	for i, r := range rows {
		csvRows[i] = []string{
			strconv.Itoa(r.Case.ID),
			fmtF(r.Case.MDegr),
			fmtF(r.Case.Theta),
			r.Case.TDegr.String(),
			strconv.Itoa(r.Servers),
			fmtF(r.CRequ),
			fmtF(r.CPeak),
		}
	}
	path := filepath.Join(out, "table1.csv")
	if err := writeCSV(path, []string{"case", "mdegr_pct", "theta", "tdegr", "servers_16way", "crequ_cpu", "cpeak_cpu"}, csvRows); err != nil {
		return err
	}
	fmt.Println("== Table I: impact of Mdegr, Tdegr and theta on resource sharing ==")
	fmt.Printf("%4s %6s %6s %8s %14s %10s %10s\n",
		"case", "Mdegr", "theta", "Tdegr", "16-way servers", "CRequ CPU", "CPeak CPU")
	for _, r := range rows {
		tdegr := "none"
		if r.Case.TDegr > 0 {
			tdegr = r.Case.TDegr.String()
		}
		fmt.Printf("%4d %5.0f%% %6.2f %8s %14d %10.0f %10.0f\n",
			r.Case.ID, r.Case.MDegr, r.Case.Theta, tdegr, r.Servers, r.CRequ, r.CPeak)
	}
	fmt.Printf("   csv: %s (elapsed %v)\n\n", path, time.Since(start).Round(time.Millisecond))
	return nil
}

func runFailover(ctx context.Context, set experiments.TraceSet, cfg experiments.Table1Config) error {
	res, err := experiments.Failover(ctx, set, cfg)
	if err != nil {
		return err
	}
	fmt.Println("== Section VI-C: failure planning (normal QoS = case 1, failure QoS = case 2) ==")
	fmt.Printf("normal mode servers: %d\n", res.NormalServers)
	for _, sc := range res.Report.Failures.Scenarios {
		verdict := "absorbed by remaining servers"
		switch {
		case sc.Err != nil:
			verdict = "INCONCLUSIVE (analysis failed)"
		case !sc.Feasible:
			verdict = "NOT absorbable"
		}
		if sc.Recovered {
			verdict += fmt.Sprintf(" (recovered on attempt %d)", sc.Attempts)
		}
		fmt.Printf("  failure of %-8s -> %d apps affected, %s\n",
			sc.FailedServer, len(sc.AffectedApps), verdict)
	}
	if extra, recovered, gaveUp := res.Report.Failures.Retries(); recovered > 0 || gaveUp > 0 {
		fmt.Printf("self-healing: %d extra attempt(s), %d scenario(s) recovered, %d gave up\n",
			extra, recovered, gaveUp)
	}
	if res.Report.Failures.SpareNeeded {
		fmt.Println("verdict: a spare server IS needed")
	} else {
		fmt.Println("verdict: no spare server needed; failure-mode QoS absorbs any single failure")
	}
	fmt.Println()
	return nil
}

func runMix(ctx context.Context, out string, seed int64, quick bool, workers int, hooks telemetry.Hooks, retry resilience.Policy, journal *checkpoint.Journal) error {
	rows, err := experiments.Mix(ctx, experiments.MixConfig{
		Seed: seed, Quick: quick, Hooks: hooks, Workers: workers,
		Retry: retry, Journal: journal,
	})
	if err != nil {
		return err
	}
	csvRows := make([][]string, len(rows))
	for i, r := range rows {
		csvRows[i] = []string{r.Algorithm, strconv.Itoa(r.Servers), fmtF(r.CRequ),
			strconv.FormatBool(r.Feasible)}
	}
	path := filepath.Join(out, "mix.csv")
	if err := writeCSV(path, []string{"algorithm", "servers", "crequ_cpu", "feasible"}, csvRows); err != nil {
		return err
	}
	fmt.Println("== Extra: mixed interactive/batch fleet, placement algorithm comparison ==")
	fmt.Println("   (beyond the paper: exploits day/night anti-correlation)")
	fmt.Printf("%-22s %8s %10s %9s\n", "algorithm", "servers", "CRequ CPU", "feasible")
	for _, r := range rows {
		fmt.Printf("%-22s %8d %10.0f %9v\n", r.Algorithm, r.Servers, r.CRequ, r.Feasible)
	}
	fmt.Println("   csv:", path)
	fmt.Println()
	return nil
}
