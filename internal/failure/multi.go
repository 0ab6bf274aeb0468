package failure

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"ropus/internal/placement"
	"ropus/internal/robust"
	"ropus/internal/telemetry"
)

// Multi-node failure planning: the paper notes that the single-failure
// scenario "can be extended to multiple node failures". AnalyzeMulti
// evaluates every combination of k concurrent server failures among the
// servers used by the base plan, re-translating all affected
// applications with their failure-mode QoS and re-running the
// consolidation on the surviving servers.

// MultiScenario is the outcome for one set of concurrently failed
// servers — a k-combination from AnalyzeMulti, or a named scenario
// class (domain loss, cascade, maintenance window) from
// AnalyzeScenarios.
type MultiScenario struct {
	// Name identifies a named scenario (AnalyzeScenarios); empty for
	// k-combination sweeps, whose identity is Key().
	Name string `json:",omitempty"`
	// FailedServers are the servers removed in this scenario, in pool
	// order — including any cascade casualties.
	FailedServers []string
	// AffectedApps are the applications that were hosted on them.
	AffectedApps []string
	// Theta is the scenario's commitment override (maintenance window);
	// 0 means the pool default applied.
	Theta float64 `json:",omitempty"`
	// CascadeRounds counts the overload-closure rounds a cascading
	// scenario ran before reaching its fixed point (0 for none).
	CascadeRounds int `json:",omitempty"`
	// CascadeAdded lists the servers the cascade closure failed beyond
	// the initial set, in pool order.
	CascadeAdded []string `json:",omitempty"`
	// Feasible reports whether the affected applications could be
	// placed on the surviving servers under failure-mode QoS.
	Feasible bool
	// Plan is the re-consolidated plan when feasible; nil otherwise.
	Plan *placement.Plan
	// Servers is the surviving server list the plan was computed
	// against.
	Servers []placement.Server
	// Attempts is how many analysis attempts the combination took.
	Attempts int
	// Recovered reports a combination that succeeded only after a retry.
	Recovered bool
	// GaveUp reports a combination whose transient failures exhausted
	// the retry policy (see Scenario.GaveUp).
	GaveUp bool
	// Probability weights a named scenario's revenue at risk into its
	// expected value (1 when unset); economics fields are scored at
	// report assembly and are zero for plain k-combination sweeps run
	// without economics.
	Probability float64 `json:",omitempty"`
	// RevenueAtRisk is the per-hour value at risk under this scenario:
	// revenue + penalty of every affected application when the scenario
	// is unabsorbable (or inconclusive), penalties alone when the
	// survivors absorb it under failure-mode QoS.
	RevenueAtRisk float64 `json:",omitempty"`
	// ExpectedRevenueAtRisk is Probability × RevenueAtRisk.
	ExpectedRevenueAtRisk float64 `json:",omitempty"`
	// AppRisk breaks RevenueAtRisk down per affected application; the
	// entries sum exactly to RevenueAtRisk.
	AppRisk []AppRisk `json:",omitempty"`
	// Err records a scenario that could not be evaluated; like the
	// single-failure case it is inconclusive, does not count toward
	// SparesNeeded, and is never checkpointed (a resumed run
	// re-attempts it).
	Err error `json:"-"`
	// ErrText mirrors Err for serialized reports: error values do not
	// survive JSON, so remote consumers (serve results, flight
	// recordings) diagnose inconclusive scenarios through this field.
	ErrText string `json:",omitempty"`
}

// Key returns a stable identifier for the failed-server combination.
func (s MultiScenario) Key() string { return strings.Join(s.FailedServers, "+") }

// MultiReport aggregates all k-failure scenarios, or all named
// scenarios of an AnalyzeScenarios sweep (K = 0 there — the failed-set
// sizes vary per scenario).
type MultiReport struct {
	// K is the number of concurrent failures analyzed.
	K         int
	Scenarios []MultiScenario
	// SparesNeeded is true when at least one combination was proven
	// unabsorbable by the surviving servers; errored scenarios are
	// inconclusive and do not set it.
	SparesNeeded bool
	// Truncated reports that the sweep was cancelled before every
	// combination was evaluated; Scenarios holds the completed prefix.
	Truncated bool
	// TotalExpectedRevenueAtRisk sums ExpectedRevenueAtRisk over every
	// completed scenario (0 when the sweep ran without economics).
	TotalExpectedRevenueAtRisk float64 `json:",omitempty"`
}

// Ranked returns the scenarios ordered by descending expected revenue
// at risk — the order an operator should buy down risk in — breaking
// ties by sweep order so the ranking is deterministic. The receiver's
// Scenarios slice is not modified.
func (r *MultiReport) Ranked() []MultiScenario {
	out := append([]MultiScenario(nil), r.Scenarios...)
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].ExpectedRevenueAtRisk > out[j].ExpectedRevenueAtRisk
	})
	return out
}

// Errors returns the per-scenario errors recorded during the sweep, in
// scenario order (empty when every scenario evaluated cleanly).
func (r *MultiReport) Errors() []error {
	var errs []error
	for _, s := range r.Scenarios {
		if s.Err != nil {
			errs = append(errs, s.Err)
		}
	}
	return errs
}

// Retries summarizes the sweep's self-healing; see Report.Retries.
func (r *MultiReport) Retries() (extra, recovered, gaveUp int) {
	for _, s := range r.Scenarios {
		if s.Attempts > 1 {
			extra += s.Attempts - 1
		}
		if s.Recovered {
			recovered++
		}
		if s.GaveUp {
			gaveUp++
		}
	}
	return extra, recovered, gaveUp
}

// Worst returns the scenario with the most affected applications among
// the infeasible ones, or nil if every scenario is feasible.
func (r *MultiReport) Worst() *MultiScenario {
	var worst *MultiScenario
	for i := range r.Scenarios {
		sc := &r.Scenarios[i]
		if sc.Feasible {
			continue
		}
		if worst == nil || len(sc.AffectedApps) > len(worst.AffectedApps) {
			worst = sc
		}
	}
	return worst
}

// AnalyzeMulti evaluates every combination of k concurrent failures of
// servers used by basePlan: the sweep engine (see sweep) run over one
// server-loss spec per combination, in lexicographic order. k=1
// degenerates to Analyze's scenarios. Degradation mirrors Analyze:
// errored combinations are recorded and skipped, cancellation truncates
// the sweep at a combination boundary, and a top-level error occurs
// only when every combination errors.
func AnalyzeMulti(ctx context.Context, in Input, basePlan *placement.Plan, k int) (report *MultiReport, err error) {
	defer robust.Recover("failure.AnalyzeMulti", &err)
	if err := validate(in, basePlan); err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, fmt.Errorf("failure: k %d < 1", k)
	}
	used := usedServers(in.Problem, basePlan)
	if k > len(used) {
		return nil, fmt.Errorf("failure: k=%d exceeds the %d servers in use", k, len(used))
	}
	report, err = sweep(ctx, in, basePlan, "failure.analyze_multi",
		combinationSpecs(in.Problem, used, k),
		telemetry.Int("k", k),
		telemetry.Int("servers_in_use", len(used)))
	if err != nil {
		return nil, err
	}
	report.K = k
	for i := range report.Scenarios {
		report.Scenarios[i].Name = "" // a combination's identity is Key()
	}
	return report, nil
}

// combinationSpecs builds one server-loss spec per k-combination of the
// used servers, in lexicographic order, each named by the combination's
// Key — for k=1, the failed server's ID.
func combinationSpecs(p *placement.Problem, used []int, k int) []ScenarioSpec {
	combos := Combinations(used, k)
	specs := make([]ScenarioSpec, len(combos))
	for i, combo := range combos {
		ids := make([]string, len(combo))
		for j, s := range combo {
			ids[j] = p.Servers[s].ID
		}
		specs[i] = ScenarioSpec{Name: strings.Join(ids, "+"), Servers: ids}
	}
	return specs
}

// Combinations enumerates all k-element subsets of items in
// lexicographic order of their positions in items (the order of the
// elements themselves when items is sorted). k outside [1, len(items)]
// yields none.
func Combinations[T any](items []T, k int) [][]T {
	var out [][]T
	combo := make([]T, k)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == k {
			out = append(out, append([]T(nil), combo...))
			return
		}
		for i := start; i <= len(items)-(k-depth); i++ {
			combo[depth] = items[i]
			rec(i+1, depth+1)
		}
	}
	if k >= 1 && k <= len(items) {
		rec(0, 0)
	}
	return out
}
