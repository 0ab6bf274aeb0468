package main

import (
	"fmt"
	"time"
)

// sizing fixes how much work one run of each workload does. fullSize is
// what the benchmark measures; toySize is the same shape small enough
// for the package's own tests.
type sizing struct {
	// caseStudy is the fleet table1 and failover plan: few apps, long
	// traces. racksPerZone shapes failover's topology (2 zones, 2 power
	// domains always).
	caseStudy    mix
	racksPerZone int
	// Distinct fleets per run. A run cycles through them until its time
	// is up; averaging over several fleets is what keeps a run's numbers
	// steady from seed to seed.
	table1Inputs, failoverInputs, fleetInputs int
	// fleet1k: many apps, short traces, hierarchical search.
	scaleApps, scaleWeeks, partitionApps int
	// serve: sessions of three jobs over one small fleet each.
	session     mix
	sessions    int
	warmupJobs  int
	resubmitGap int // one byte-identical resubmission per this many new jobs
	// qualitySessions is how many leading sessions' place jobs the quality
	// metrics are taken over: a fixed set, whatever the throughput.
	qualitySessions int
	// probeCycles sizes the checkpoint and lease probes; probeGroups caps
	// the app groups the simulator probes time.
	probeCycles, probeGroups int
}

var fullSize = sizing{
	caseStudy:    mix{spiky: 2, bursty: 8, smooth: 16, weeks: 4, interval: 5 * time.Minute},
	racksPerZone: 3,
	table1Inputs: 16, failoverInputs: 10, fleetInputs: 8,
	scaleApps: 1000, scaleWeeks: 1, partitionApps: 25,
	session:  mix{spiky: 1, bursty: 4, smooth: 7, weeks: 2, interval: time.Hour},
	sessions: 400, warmupJobs: 30, resubmitGap: 10, qualitySessions: 60,
	probeCycles: 200, probeGroups: 64,
}

var toySize = sizing{
	caseStudy:    mix{spiky: 1, bursty: 2, smooth: 3, weeks: 1, interval: 5 * time.Minute},
	racksPerZone: 1,
	table1Inputs: 2, failoverInputs: 2, fleetInputs: 2,
	scaleApps: 60, scaleWeeks: 1, partitionApps: 20,
	session:  mix{spiky: 1, bursty: 2, smooth: 3, weeks: 1, interval: time.Hour},
	sessions: 100, warmupJobs: 3, resubmitGap: 5, qualitySessions: 3,
	probeCycles: 10, probeGroups: 4,
}

// capCPUs is the peak demand generated traces are capped at: an app's
// allocation is peak/ULow = 2·peak, and it has to fit one 16-way server.
const capCPUs = 7.0

// inputSeed derives the seed of a run's i-th input from the run's seed,
// so distinct run seeds never share a fleet.
func inputSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// planInput is one fleet a plan workload plans.
type planInput struct {
	idx    int
	seed   int64
	fleet  fleet
	capped int
}

// genInputs generates n fleets with gen and applies the cap rule. It
// also returns how long one fleet took to generate (median).
func genInputs(seed int64, n int, gen func(seed int64) (fleet, error)) ([]planInput, float64, error) {
	inputs := make([]planInput, n)
	times := make([]float64, n)
	for i := range inputs {
		s := inputSeed(seed, i)
		start := time.Now()
		f, err := gen(s)
		times[i] = time.Since(start).Seconds()
		if err != nil {
			return nil, 0, fmt.Errorf("bench: generate input %d (seed %d): %w", i, s, err)
		}
		inputs[i] = planInput{idx: i, seed: s, fleet: f, capped: capFleet(f, capCPUs)}
	}
	return inputs, median(times), nil
}

func totalCapped(inputs []planInput) int {
	n := 0
	for _, in := range inputs {
		n += in.capped
	}
	return n
}

// scenarioDoc is failover's scenario universe: two zone losses, a power
// loss, every 2-server failure of one rack, a cascade seeded by the
// power loss and a maintenance window at a degraded θ. On the full-size
// topology rack-01 holds 5 of the 26 candidate servers, so the document
// compiles to 15 scenarios.
const scenarioDoc = `{
  "economics": {"defaultRevenuePerHour": 100, "defaultPenaltyPerHour": 10},
  "scenarios": [
    {"name": "zone-a-down", "kind": "domain-loss", "domain": "zone-a", "probability": 0.02},
    {"name": "zone-b-down", "kind": "domain-loss", "domain": "zone-b", "probability": 0.02},
    {"name": "power-1-down", "kind": "domain-loss", "domain": "power-01", "probability": 0.05},
    {"name": "rack-1-pair", "kind": "k-of-domain", "domain": "rack-01", "k": 2, "probability": 0.01},
    {"name": "power-ripple", "kind": "cascade", "from": "power-1-down", "overloadFactor": 0.9, "maxRounds": 6},
    {"name": "patch-window", "kind": "maintenance", "domain": "rack-02", "theta": 0.5}
  ]
}`

// The three plan pipelines. table1 has none of its own: it calls
// experiments.Table1, whose per-case configuration table1Pipelines
// mirrors for the harness's checks.

// failoverPipeline is the section VI-C analysis: case-1 QoS in normal
// mode, case-2 QoS after a failure, θ = 0.6, then the scenario universe.
func failoverPipeline(sc *scenarioSet) pipeline {
	return pipeline{theta: 0.6, normal: caseStudyQoS(100, 0), failure: caseStudyQoS(97, 30*time.Minute),
		ga: quickGA(), tolerance: 0.1, scenarios: sc}
}

// fleetPipeline is the BENCH_fleet_scale.json plan: hierarchical search
// with the full default GA per sub-pool.
func fleetPipeline(sz sizing) pipeline {
	q := caseStudyQoS(97, 30*time.Minute)
	return pipeline{theta: 0.6, normal: q, failure: q, ga: defaultGA(), tolerance: 0.1, partitionApps: sz.partitionApps}
}

// servePipeline spells out what a served job runs: the CLI defaults.
func servePipeline() pipeline {
	q := caseStudyQoS(97, 30*time.Minute)
	return pipeline{theta: 0.6, normal: q, failure: q, ga: defaultGA(), tolerance: 0.1}
}

// session is one client's work in the serve workload: translate, place
// and failover jobs over the same traces, under one tenant.
type session struct {
	fleet  fleet
	tenant string
	bodies [][]byte // one per jobKinds entry
}

var tenants = []string{"gold", "silver", "bronze"}

// genSessions pre-encodes every request body the serve workload sends.
func genSessions(seed int64, sz sizing) ([]session, int, float64, error) {
	p := servePipeline()
	sessions := make([]session, sz.sessions)
	times := make([]float64, sz.sessions)
	capped := 0
	for i := range sessions {
		start := time.Now()
		f, err := genMix(sz.session, inputSeed(seed, i))
		times[i] = time.Since(start).Seconds()
		if err != nil {
			return nil, 0, 0, fmt.Errorf("bench: generate session %d: %w", i, err)
		}
		capped += capFleet(f, capCPUs)
		csv, err := encodeCSV(f)
		if err != nil {
			return nil, 0, 0, err
		}
		s := session{fleet: f, tenant: tenants[i%len(tenants)]}
		for _, kind := range jobKinds {
			body, err := jobBody(kind, csv, p)
			if err != nil {
				return nil, 0, 0, err
			}
			s.bodies = append(s.bodies, body)
		}
		sessions[i] = s
	}
	return sessions, capped, median(times), nil
}
