package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strings"
)

// metricDecl is one metric as BENCHMARK.json declares it. Bound is the
// share of the parent's median by which an end-to-end metric may get
// worse; per-layer metrics have none.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the harness uses. That file is
// the single declaration of what this benchmark measures; the harness
// reads it instead of repeating it, so the file the driver checks and
// the numbers the harness prints cannot drift apart.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// loadSpec reads BENCHMARK.json from the repository root: the working
// directory under `go run ./bench`, its parent under `go test`.
func loadSpec() (*benchSpec, error) {
	var data []byte
	var err error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if data, err = os.ReadFile(path); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("bench: BENCHMARK.json: %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("bench: BENCHMARK.json: %w", err)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDecl(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !metricName.MatchString(m.Name) || seen[m.Name] {
			return nil, fmt.Errorf("bench: BENCHMARK.json: bad or repeated metric name %q", m.Name)
		}
		seen[m.Name] = true
	}
	return &spec, nil
}

func (s *benchSpec) workloadNames() []string {
	names := make([]string, len(s.Workloads))
	for i, w := range s.Workloads {
		names[i] = w.Name
	}
	return names
}

// metricValue is one reported number; Samples is how many timed
// observations stand behind it (0 for a single reading).
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// hostInfo records where a run was taken, so two result files can be
// told apart before they are compared.
type hostInfo struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	LoadAvg    string `json:"loadavg"`
}

// runResult is everything one run of one workload produced. It is the
// line format of the -out result file that `bench compare` reads.
type runResult struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Traced   bool     `json:"traced"`
	Seconds  float64  `json:"seconds"`
	Host     hostInfo `json:"host"`

	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	// Failures explains every failed operation; an empty list with
	// Failed == 0 is the only passing state.
	Failures []string `json:"failures,omitempty"`

	// Metrics holds the metrics BENCHMARK.json declares for this mode:
	// every end-to-end metric untraced, every per-layer metric traced.
	Metrics map[string]metricValue `json:"metrics"`
	// LayerOnly holds per-layer timings of stages that run on this
	// workload alone (see README, "Workload-only layer metrics"). They
	// cannot be in BENCHMARK.json, which requires every listed metric
	// from every workload.
	LayerOnly map[string]metricValue `json:"layer_only,omitempty"`
	// Absent lists declared counters the program no longer exports.
	Absent []string `json:"absent,omitempty"`

	InputsCapped int    `json:"inputs_capped"`
	Digest       string `json:"digest"`
	SpanFile     string `json:"span_file,omitempty"`
}

func (r *runResult) set(name string, value float64, unit string, samples int) {
	r.Metrics[name] = metricValue{Value: value, Unit: unit, Samples: samples}
}

func (r *runResult) setOnly(name string, value float64, unit string, samples int) {
	if r.LayerOnly == nil {
		r.LayerOnly = map[string]metricValue{}
	}
	r.LayerOnly[name] = metricValue{Value: value, Unit: unit, Samples: samples}
}

func (r *runResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// conform checks the run against the declaration: exactly the declared
// metrics of its mode, each in its declared unit, and no end-to-end
// metric at zero.
func (r *runResult) conform(spec *benchSpec) error {
	decls := spec.EndToEnd
	if r.Traced {
		decls = spec.PerLayer
	}
	for _, d := range decls {
		m, ok := r.Metrics[d.Name]
		switch {
		case !ok:
			return fmt.Errorf("bench: %s did not report %s", r.Workload, d.Name)
		case m.Unit != d.Unit:
			return fmt.Errorf("bench: %s reports %s in %q, declared %q", r.Workload, d.Name, m.Unit, d.Unit)
		case !r.Traced && m.Value == 0:
			return fmt.Errorf("bench: %s reports end-to-end metric %s as 0", r.Workload, d.Name)
		}
	}
	if len(r.Metrics) != len(decls) { // every declared one is there, so the rest are extra
		return fmt.Errorf("bench: %s reports %d metrics, %d are declared", r.Workload, len(r.Metrics), len(decls))
	}
	return nil
}

// report prints the run for people: every metric by name with its unit,
// direction, regression bound and sample count.
func (r *runResult) report(w io.Writer, spec *benchSpec) {
	mode := "end-to-end (untraced)"
	decls := spec.EndToEnd
	if r.Traced {
		mode = "per-layer (traced)"
		decls = spec.PerLayer
	}
	fmt.Fprintf(w, "== %s  seed %d  %s  commit %s  %s  nproc %d  GOMAXPROCS %d  load %s\n",
		r.Workload, r.Seed, mode, r.Host.Commit, r.Host.GoVersion, r.Host.NumCPU, r.Host.GOMAXPROCS, r.Host.LoadAvg)
	fmt.Fprintf(w, "%-36s %16s %-8s %-7s %-6s %s\n", "metric", "value", "unit", "better", "bound", "samples")
	for _, d := range decls {
		m := r.Metrics[d.Name]
		bound := "-"
		if !r.Traced {
			bound = fmt.Sprintf("%.0f%%", d.Bound*100)
		}
		fmt.Fprintf(w, "%-36s %16.6g %-8s %-7s %-6s %d\n", d.Name, m.Value, m.Unit, d.Better, bound, m.Samples)
	}
	only := make([]string, 0, len(r.LayerOnly))
	for name := range r.LayerOnly {
		only = append(only, name)
	}
	sort.Strings(only)
	for _, name := range only {
		m := r.LayerOnly[name]
		fmt.Fprintf(w, "%-36s %16.6g %-8s %-7s %-6s %d  (this workload only)\n", name, m.Value, m.Unit, "-", "-", m.Samples)
	}
	if len(r.Absent) > 0 {
		fmt.Fprintf(w, "absent counters: %s\n", strings.Join(r.Absent, ", "))
	}
	fmt.Fprintf(w, "attempted %d  failed %d  inputs_capped %d  digest %s\n", r.Attempted, r.Failed, r.InputsCapped, r.Digest)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
	if r.SpanFile != "" {
		fmt.Fprintf(w, "spans written to %s\n", r.SpanFile)
	}
}

// driverLine is the last line of standard output: the object the
// benchmark driver parses.
func (r *runResult) driverLine() ([]byte, error) {
	type wire struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]wire, len(r.Metrics))
	for name, m := range r.Metrics {
		metrics[name] = wire{m.Value, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool            `json:"correct"`
		Attempted int             `json:"attempted"`
		Failed    int             `json:"failed"`
		Metrics   map[string]wire `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
}
