package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

// verify.go re-checks the program's outputs from outside. A check that
// fails makes the operation a failure in the run's result; it is never
// folded into a number.

// verifyPlaced checks one assignment: every app placed exactly once, and
// every used server, replayed at its own capacity, keeps the CoS1
// guarantee, the θ commitment and the deadline.
func verifyPlaced(p *placedPlan) error {
	seen := make(map[string]int, len(p.want))
	for _, s := range p.servers {
		for _, id := range s.apps {
			seen[id]++
		}
	}
	for _, id := range p.want {
		if seen[id] != 1 {
			return fmt.Errorf("%s: app %s placed %d times", p.label, id, seen[id])
		}
	}
	if len(seen) != len(p.want) {
		return fmt.Errorf("%s: %d apps placed, want %d", p.label, len(seen), len(p.want))
	}
	for _, s := range p.servers {
		fits, err := p.replayFits(s)
		if err != nil {
			return fmt.Errorf("%s: server %s: %w", p.label, s.id, err)
		}
		if !fits {
			return fmt.Errorf("%s: server %s does not meet theta %.2f at capacity %.0f with %d apps",
				p.label, s.id, p.commitment.Theta, s.capacity, len(s.apps))
		}
	}
	return nil
}

// verifyPlan checks the base plan and every feasible scenario plan of a
// pipeline output, and that no scenario was left inconclusive.
func verifyPlan(o *planOut) error {
	for _, p := range o.placed() {
		if err := verifyPlaced(&p); err != nil {
			return err
		}
	}
	if n := o.inconclusive(); n > 0 {
		return fmt.Errorf("%d failure scenarios could not be analyzed", n)
	}
	return nil
}

// verifyRows checks Table I rows against references computed from
// outside. experiments.Table1 returns no assignment to replay, so the
// check is consistency: the guaranteed CoS1 peak fits both the servers a
// case uses and its ΣC_requ, ΣC_requ fits the servers, and ΣC_peak is the
// translation's own sum.
func verifyRows(o *table1Out, bounds []bound) error {
	if len(o.rows) != len(bounds) {
		return fmt.Errorf("table1: %d rows, want %d", len(o.rows), len(bounds))
	}
	for i, r := range o.rows {
		b := bounds[i]
		switch {
		case float64(r.servers*serverCPUs) < b.cos1Peak-1e-9:
			return fmt.Errorf("table1 case %d: %d servers cannot hold the CoS1 peak %.2f", r.id, r.servers, b.cos1Peak)
		case r.cRequ > float64(r.servers*serverCPUs)+1e-9:
			return fmt.Errorf("table1 case %d: C_requ %.2f exceeds %d servers", r.id, r.cRequ, r.servers)
		case r.cRequ < b.cos1Peak-1e-9:
			return fmt.Errorf("table1 case %d: C_requ %.2f is below the CoS1 peak %.2f", r.id, r.cRequ, b.cos1Peak)
		case math.Abs(r.cPeak-b.cPeak) > 1e-6*b.cPeak:
			return fmt.Errorf("table1 case %d: C_peak %.4f, translation gives %.4f", r.id, r.cPeak, b.cPeak)
		}
	}
	return nil
}

// verifyPlaceResult checks a served place or failover job's result
// document: every app of the session on exactly one server.
func verifyPlaceResult(raw json.RawMessage, apps []string) (*placeResult, error) {
	var res placeResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, fmt.Errorf("result: %w", err)
	}
	seen := map[string]int{}
	for _, s := range res.Servers {
		for _, id := range s.AppIDs {
			seen[id]++
		}
	}
	for _, id := range apps {
		if seen[id] != 1 {
			return nil, fmt.Errorf("result: app %s placed %d times", id, seen[id])
		}
	}
	if len(res.Servers) != res.ServersUsed || res.Applications != len(apps) {
		return nil, fmt.Errorf("result: %d servers listed for serversUsed %d, %d applications for %d",
			len(res.Servers), res.ServersUsed, res.Applications, len(apps))
	}
	for _, f := range res.Failures {
		if f.Inconclusive {
			return nil, fmt.Errorf("result: an inconclusive failure scenario")
		}
	}
	return &res, nil
}

// digest folds (key, hash) pairs, sorted by key, into one printable
// value: two runs planned the same things iff their digests match.
func digest(pairs map[string]string) string {
	keys := make([]string, 0, len(pairs))
	for k := range pairs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\n", k, pairs[k])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
