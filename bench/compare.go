package main

import (
	"fmt"
	"io"
	"sort"
)

// verdict is the outcome of comparing one end-to-end metric on one
// workload between a base set of runs and a changed one.
type verdict string

const (
	regressed   verdict = "regressed"
	improved    verdict = "improved"
	withinBound verdict = "within-bound"
	unresolved  verdict = "unresolved"
)

// reading is one run's value of a metric.
type reading struct {
	seed  int64
	value float64
}

func values(rs []reading) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.value
	}
	return out
}

// judge applies a metric's bound to two sets of readings. worse is how
// much worse the change's median is than the base's, as a share of the
// base's; spread is the wider of the two sets' own quartile spreads.
//
//   - spread above the bound: the runs cannot resolve a change of the
//     size the bound forbids, so the pair is unresolved, unless every
//     reading of one side beats every reading of the other;
//   - worse by more than the bound: regressed;
//   - better by more than the base's own spread, and better in at least
//     nine tenths of the pairs of runs that share a seed: improved;
//   - otherwise within-bound.
func judge(d metricDecl, baseRuns, changeRuns []reading) (v verdict, worse, spread float64) {
	base, change := values(baseRuns), values(changeRuns)
	sign := 1.0
	if d.Better == "higher" {
		sign = -1
	}
	mb, mc := median(base), median(change)
	if mb != 0 {
		worse = sign * (mc - mb) / mb
	}
	baseSpread := spreadShare(base)
	spread = baseSpread
	if s := spreadShare(change); s > spread {
		spread = s
	}
	if spread > d.Bound {
		switch {
		case allBetter(sign, change, base):
			return improved, worse, spread
		case allBetter(sign, base, change) && worse > d.Bound:
			return regressed, worse, spread
		}
		return unresolved, worse, spread
	}
	switch {
	case worse > d.Bound:
		return regressed, worse, spread
	case worse < 0 && -worse > baseSpread && winsPairs(sign, baseRuns, changeRuns):
		return improved, worse, spread
	}
	return withinBound, worse, spread
}

// winsPairs pairs the runs by seed and reports whether the change is
// better in at least nine tenths of the pairs, ties counting for
// neither side. Sets that share no seed have no pairs to lose.
func winsPairs(sign float64, base, change []reading) bool {
	bySeed := make(map[int64]float64, len(base))
	for _, r := range base {
		bySeed[r.seed] = r.value
	}
	pairs, wins := 0, 0
	for _, r := range change {
		b, ok := bySeed[r.seed]
		if !ok {
			continue
		}
		pairs++
		if sign*r.value < sign*b {
			wins++
		}
	}
	return float64(wins) >= 0.9*float64(pairs)
}

// allBetter reports whether every reading of a is better than every
// reading of b (sign +1: lower is better).
func allBetter(sign float64, a, b []float64) bool {
	worstA, bestB := sign*a[0], sign*b[0]
	for _, x := range a {
		if sign*x > worstA {
			worstA = sign * x
		}
	}
	for _, x := range b {
		if sign*x < bestB {
			bestB = sign * x
		}
	}
	return worstA < bestB
}

// readings groups the untraced runs of a result file by workload and
// end-to-end metric.
func readings(results []runResult) map[string]map[string][]reading {
	out := map[string]map[string][]reading{}
	for _, r := range results {
		if r.Traced {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]reading{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], reading{r.Seed, m.Value})
		}
	}
	return out
}

// compareMain implements `bench compare BASE CHANGE`: one row per
// (workload, end-to-end metric), exit code 1 if any row regressed or a
// run in either file failed an operation.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(w, "usage: bench compare BASE.jsonl CHANGE.jsonl")
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(w, err)
		return 2
	}
	var sets [2]map[string]map[string][]reading
	bad := false
	for i, path := range args {
		results, err := readResults(path)
		if err != nil {
			fmt.Fprintln(w, err)
			return 2
		}
		for _, r := range results {
			if r.Failed > 0 || !r.Correct {
				fmt.Fprintf(w, "%s: %s seed %d failed %d of %d operations\n", path, r.Workload, r.Seed, r.Failed, r.Attempted)
				bad = true
			}
		}
		sets[i] = readings(results)
	}
	workloads := make([]string, 0, len(sets[0]))
	for name := range sets[0] {
		workloads = append(workloads, name)
	}
	sort.Strings(workloads)
	fmt.Fprintf(w, "%-9s %-16s %14s %14s %8s %8s %6s %5s  %s\n",
		"workload", "metric", "base", "change", "worse", "spread", "bound", "runs", "verdict")
	for _, wl := range workloads {
		for _, d := range spec.EndToEnd {
			base, change := sets[0][wl][d.Name], sets[1][wl][d.Name]
			if len(base) == 0 || len(change) == 0 {
				continue
			}
			v, worse, spread := judge(d, base, change)
			if v == regressed {
				bad = true
			}
			fmt.Fprintf(w, "%-9s %-16s %14.6g %14.6g %+7.1f%% %7.1f%% %5.0f%% %2d/%-2d  %s\n",
				wl, d.Name, median(values(base)), median(values(change)), worse*100, spread*100, d.Bound*100, len(base), len(change), v)
		}
	}
	if bad {
		return 1
	}
	return 0
}
