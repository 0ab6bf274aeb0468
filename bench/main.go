// Command bench is the repository's benchmark: four seeded workloads
// driven through the planner's and the planning service's public
// surfaces, every output verified, every metric of BENCHMARK.json
// printed by name. See README.md in this directory.
//
//	go run ./bench                          all four workloads, end to end
//	go run ./bench -workload serve -trace 1 one workload, per-layer metrics
//	go run ./bench compare A.jsonl B.jsonl  judge two sets of runs
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	var (
		workload = flag.String("workload", "", "workload to run (default: each in turn, in its own process)")
		seed     = flag.Int64("seed", 2006, "seed the inputs are generated from")
		secs     = flag.Float64("seconds", 0, "seconds to measure for (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
		out      = flag.String("out", "", "append the run's full result to this file, one JSON object per line (input of `bench compare`)")
	)
	flag.Parse()
	if err := run(*workload, *seed, *secs, *trace == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, secs float64, traced bool, out string) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	if secs <= 0 {
		secs = float64(spec.RunSeconds)
	}
	if workload == "" {
		return runEach(spec, seed, secs, traced, out)
	}
	// Scratch space (state directory, journals, span file) lives inside
	// the checkout, in the directory the benchmark driver already sets
	// aside for build output.
	workDir := filepath.Join(".bench_build", fmt.Sprintf("%s-%d", workload, os.Getpid()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(workDir)

	res, err := runWorkload(context.Background(), spec, workload, runOpts{seed: seed, seconds: secs, traced: traced, size: fullSize, workDir: workDir})
	if err != nil {
		return err
	}
	if res.SpanFile != "" {
		// Keep the span file past the scratch directory.
		kept := filepath.Join(".bench_build", "spans-"+workload+".json")
		if err := os.Rename(res.SpanFile, kept); err != nil {
			return err
		}
		res.SpanFile = kept
	}
	res.report(os.Stdout, spec)
	if out != "" {
		if err := appendResult(out, res); err != nil {
			return err
		}
	}
	if err := res.conform(spec); err != nil && res.Failed == 0 {
		return err
	}
	line, err := res.driverLine()
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

// runWorkload runs one workload in this process and fills in what every
// result carries. Tests call it with toySize.
func runWorkload(ctx context.Context, spec *benchSpec, workload string, opts runOpts) (*runResult, error) {
	res := &runResult{Workload: workload, Seed: opts.seed, Traced: opts.traced, Seconds: opts.seconds,
		Host: host(), Metrics: map[string]metricValue{}}
	var err error
	if w, ok := planWorkloads(opts.size, opts.workDir)[workload]; ok {
		err = w.run(ctx, opts, res)
	} else if workload == "serve" {
		err = runServe(ctx, opts, res)
	} else {
		err = fmt.Errorf("bench: unknown workload %q (have %s)", workload, strings.Join(spec.workloadNames(), ", "))
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// runEach runs every workload of BENCHMARK.json in its own process, so
// one workload's heap and warmed pools never meet the next one's.
func runEach(spec *benchSpec, seed int64, secs float64, traced bool, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	failed := false
	for _, name := range spec.workloadNames() {
		cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(secs), "-trace", trace, "-out", out)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: workload %s: %v\n", name, err)
			failed = true
		}
	}
	if failed {
		return fmt.Errorf("bench: a workload failed")
	}
	return nil
}

func appendResult(path string, res *runResult) error {
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readResults reads a result file written through -out.
func readResults(path string) ([]runResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var results []runResult
	dec := json.NewDecoder(f)
	for {
		var r runResult
		if err := dec.Decode(&r); err == io.EOF {
			return results, nil
		} else if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", path, err)
		}
		results = append(results, r)
	}
}

// writeSpans writes the run's harness spans as Chrome trace_event JSON
// into the scratch directory; run moves the file where it is kept.
func writeSpans(l *spanLog, res *runResult, workDir string) error {
	path := filepath.Join(workDir, "spans.json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := l.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	res.SpanFile = path
	return f.Close()
}

// host describes the machine and build of this run.
func host() hostInfo {
	h := hostInfo{Commit: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), LoadAvg: "unknown"}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				h.Commit = s.Value[:12]
			}
		}
	}
	if h.Commit == "unknown" {
		// `go run` does not stamp the build; ask git about this directory
		// only (the ceiling stops it at the checkout), which fails quietly
		// where the checkout is not a repository.
		if cwd, err := os.Getwd(); err == nil {
			cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
			cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(cwd))
			if rev, err := cmd.Output(); err == nil {
				h.Commit = strings.TrimSpace(string(rev))
			}
		}
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if fields := strings.Fields(string(data)); len(fields) >= 3 {
			h.LoadAvg = strings.Join(fields[:3], " ")
		}
	}
	return h
}

// peakRSSMB is the process's maximum resident set so far (getrusage
// reports kilobytes on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
