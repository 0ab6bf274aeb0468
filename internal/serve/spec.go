// Package serve runs the R-Opus planner as a long-running,
// admission-controlled HTTP/JSON service: clients submit planning jobs
// (QoS translation, consolidation, failover analysis, long-term plans),
// the service executes them on a bounded pool of executors backed by
// the shared simulation cache and the retry/checkpoint machinery, and a
// SIGTERM'd server resumes its in-flight sweeps after a restart with
// byte-identical results.
//
// The deployment mode follows the provisioning-system literature the
// paper builds on: a planner in a shared pool is itself a service under
// load, so it needs idempotent submissions, explicit load shedding
// (429 + Retry-After instead of collapse), progress visibility, and a
// drain/resume contract. The service also runs as a fleet: N instances
// sharing one state directory arbitrate job ownership through leases
// (internal/lease), steal each other's jobs after a crash, and resume
// them byte-identically from the checkpoint journal. Admission is
// tenant-aware: per-tenant quotas and weighted deficit-round-robin
// dequeue keep one tenant's burst from starving the rest. See
// docs/SERVING.md for the API and the fleet protocol.
package serve

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"time"

	"ropus/internal/checkpoint"
	"ropus/internal/failure"
	"ropus/internal/qos"
	"ropus/internal/scenario"
	"ropus/internal/topology"
	"ropus/internal/trace"
)

// Job kinds, mirroring the CLI subcommands.
const (
	KindTranslate = "translate"
	KindPlace     = "place"
	KindFailover  = "failover"
	KindPlan      = "plan"
)

// jobKinds lists every job kind.
var jobKinds = []string{KindTranslate, KindPlace, KindFailover, KindPlan}

// Duration marshals as a Go duration string ("30m") and also accepts
// integer nanoseconds, so specs round-trip through JSON unambiguously.
type Duration time.Duration

// MarshalJSON renders the duration as its string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "1h30m" strings or integer nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	switch v := v.(type) {
	case string:
		dur, err := time.ParseDuration(v)
		if err != nil {
			return fmt.Errorf("serve: bad duration %q: %w", v, err)
		}
		*d = Duration(dur)
		return nil
	case float64:
		*d = Duration(v)
		return nil
	default:
		return fmt.Errorf("serve: bad duration %v", v)
	}
}

// QoSSpec is the JSON form of a per-application QoS requirement. Its
// defaults mirror the CLI flags.
type QoSSpec struct {
	ULow     float64  `json:"ulow"`
	UHigh    float64  `json:"uhigh"`
	UDegr    float64  `json:"udegr"`
	MPercent float64  `json:"mPercent"`
	TDegr    Duration `json:"tdegr"`
}

// defaultQoS matches the qosFlags defaults of cmd/ropus.
func defaultQoS() QoSSpec {
	return QoSSpec{ULow: 0.5, UHigh: 0.66, UDegr: 0.9, MPercent: 97, TDegr: Duration(30 * time.Minute)}
}

// appQoS converts the spec to the domain type.
func (q QoSSpec) appQoS() qos.AppQoS {
	return qos.AppQoS{ULow: q.ULow, UHigh: q.UHigh, UDegr: q.UDegr,
		MPercent: q.MPercent, TDegr: time.Duration(q.TDegr)}
}

// JobSpec is a submitted planning job. Every field that determines the
// result feeds the job key, so resubmitting an identical spec is
// idempotent: it lands on the same job. Omitted fields take the CLI
// defaults before hashing, so an explicit default and an omitted field
// name the same job.
type JobSpec struct {
	// Kind selects the pipeline: translate, place, failover or plan.
	Kind string `json:"kind"`
	// Tenant is the admission class the job is accounted to (weights,
	// quotas, DRR dequeue). It is deliberately excluded from Key: the
	// tenant does not change the result, so two tenants submitting the
	// same spec share one job. Empty means "default". Set from the
	// X-Ropus-Tenant header by the HTTP layer.
	Tenant string `json:"tenant,omitempty"`
	// TracesCSV is the demand history in the trace CSV format (the
	// output of "ropus gen").
	TracesCSV string `json:"tracesCsv"`
	// Theta and Deadline are the pool's CoS2 commitment.
	Theta    float64  `json:"theta,omitempty"`
	Deadline Duration `json:"deadline,omitempty"`
	// ServerCPUs is the per-server CPU count; GASeed seeds the
	// consolidation search.
	ServerCPUs int   `json:"serverCpus,omitempty"`
	GASeed     int64 `json:"gaSeed,omitempty"`
	// PartitionApps > 0 consolidates with the hierarchical pool-of-pools
	// search, capping each sub-pool at this many applications; 0 keeps
	// the flat search (and the pre-hierarchical job keys).
	PartitionApps int `json:"partitionApps,omitempty"`
	// QoS is the normal-mode requirement; FailureQoS the failure-mode
	// one (failover jobs; defaults to QoS).
	QoS        *QoSSpec `json:"qos,omitempty"`
	FailureQoS *QoSSpec `json:"failureQos,omitempty"`
	// ScenariosJSON, for failover jobs, is a scenario DSL document (the
	// -scenarios file's contents): the job additionally sweeps the named
	// correlated-failure scenarios and ranks them by expected revenue at
	// risk. TopologyJSON resolves its domain references.
	ScenariosJSON string `json:"scenariosJson,omitempty"`
	TopologyJSON  string `json:"topologyJson,omitempty"`
	// Plan-only knobs.
	HorizonWeeks int `json:"horizonWeeks,omitempty"`
	StepWeeks    int `json:"stepWeeks,omitempty"`
	PoolServers  int `json:"poolServers,omitempty"`
}

// normalize fills the CLI defaults in place. It must run before Key so
// explicit defaults and omitted fields hash identically.
func (s *JobSpec) normalize() {
	if s.Tenant == "" {
		s.Tenant = DefaultTenant
	}
	if s.Theta == 0 {
		s.Theta = 0.6
	}
	if s.Deadline == 0 {
		s.Deadline = Duration(time.Hour)
	}
	if s.ServerCPUs == 0 {
		s.ServerCPUs = 16
	}
	if s.GASeed == 0 {
		s.GASeed = 42
	}
	if s.QoS == nil {
		q := defaultQoS()
		s.QoS = &q
	}
	if s.FailureQoS == nil {
		q := *s.QoS
		s.FailureQoS = &q
	}
	if s.Kind == KindPlan {
		if s.HorizonWeeks == 0 {
			s.HorizonWeeks = 12
		}
		if s.StepWeeks == 0 {
			s.StepWeeks = 4
		}
	}
}

// parse validates the spec and decodes its traces. It is the admission
// gate: anything that would fail the pipeline for structural reasons is
// rejected here with a client error instead of burning an executor.
func (s *JobSpec) parse() (trace.Set, error) {
	if !slices.Contains(jobKinds, s.Kind) {
		return nil, fmt.Errorf("serve: unknown job kind %q", s.Kind)
	}
	if s.TracesCSV == "" {
		return nil, fmt.Errorf("serve: %s job needs tracesCsv", s.Kind)
	}
	if err := validTenant(s.Tenant); err != nil {
		return nil, err
	}
	set, err := trace.ReadCSV(strings.NewReader(s.TracesCSV))
	if err != nil {
		return nil, fmt.Errorf("serve: bad traces: %w", err)
	}
	if err := set.Validate(); err != nil {
		return nil, fmt.Errorf("serve: bad traces: %w", err)
	}
	if err := s.QoS.appQoS().Validate(); err != nil {
		return nil, fmt.Errorf("serve: bad qos: %w", err)
	}
	if err := s.FailureQoS.appQoS().Validate(); err != nil {
		return nil, fmt.Errorf("serve: bad failureQos: %w", err)
	}
	commit := qos.PoolCommitment{Theta: s.Theta, Deadline: time.Duration(s.Deadline)}
	if err := commit.Validate(); err != nil {
		return nil, fmt.Errorf("serve: bad commitment: %w", err)
	}
	if s.PartitionApps < 0 {
		return nil, fmt.Errorf("serve: partitionApps %d < 0", s.PartitionApps)
	}
	if s.PoolServers < 0 {
		return nil, fmt.Errorf("serve: poolServers %d < 0", s.PoolServers)
	}
	if s.ServerCPUs <= 0 {
		return nil, fmt.Errorf("serve: serverCpus %d <= 0", s.ServerCPUs)
	}
	if s.Kind == KindPlan {
		if s.HorizonWeeks <= 0 || s.StepWeeks <= 0 || s.HorizonWeeks%s.StepWeeks != 0 {
			return nil, fmt.Errorf("serve: stepWeeks %d must divide horizonWeeks %d", s.StepWeeks, s.HorizonWeeks)
		}
	}
	if s.ScenariosJSON != "" && s.Kind != KindFailover {
		return nil, fmt.Errorf("serve: scenariosJson is only valid for failover jobs")
	}
	if s.TopologyJSON != "" && s.ScenariosJSON == "" {
		return nil, fmt.Errorf("serve: topologyJson is only meaningful with scenariosJson")
	}
	if _, _, err := s.compileScenarios(); err != nil {
		return nil, err
	}
	return set, nil
}

// compileScenarios decodes and compiles the spec's scenario universe at
// the admission gate, so a malformed document is a 4xx instead of a
// burned executor. It returns (nil, nil, nil) when the spec has none.
func (s *JobSpec) compileScenarios() ([]failure.ScenarioSpec, *failure.Economics, error) {
	if s.ScenariosJSON == "" {
		return nil, nil, nil
	}
	doc, err := scenario.ReadJSON(strings.NewReader(s.ScenariosJSON))
	if err != nil {
		return nil, nil, fmt.Errorf("serve: bad scenarios: %w", err)
	}
	var topo *topology.Topology
	if s.TopologyJSON != "" {
		if topo, err = topology.ReadJSON(strings.NewReader(s.TopologyJSON)); err != nil {
			return nil, nil, fmt.Errorf("serve: bad topology: %w", err)
		}
	}
	specs, err := doc.Compile(topo)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: bad scenarios: %w", err)
	}
	return specs, doc.Economics, nil
}

// Key derives the job's idempotency key: the FNV run hash over every
// result-determining field, the same machinery the CLI binds checkpoint
// journals with. Executor-side knobs (workers, cache size) are
// deliberately excluded, so a job resumes at any parallelism.
func (s *JobSpec) Key(set trace.Set) uint64 {
	h := checkpoint.NewHasher().String("serve." + s.Kind)
	foldQoS(h, *s.QoS)
	foldQoS(h, *s.FailureQoS)
	h.Float(s.Theta).Int(int64(s.Deadline)).Int(int64(s.ServerCPUs)).Int(s.GASeed)
	// The partition cap is folded only when the hierarchical search is
	// actually on, so pre-hierarchical keys stay stable.
	if s.PartitionApps > 0 {
		h.String("partitions").Int(int64(s.PartitionApps))
	}
	h.Int(int64(s.HorizonWeeks)).Int(int64(s.StepWeeks)).Int(int64(s.PoolServers))
	// Scenario and topology documents are folded only when present, so
	// keys (and the journals bound to them) from clients predating the
	// scenario universe stay stable.
	if s.ScenariosJSON != "" {
		h.String("scenarios").String(s.ScenariosJSON)
	}
	if s.TopologyJSON != "" {
		h.String("topology").String(s.TopologyJSON)
	}
	h.Int(int64(len(set)))
	for _, tr := range set {
		h.String(tr.AppID).Int(int64(tr.Interval)).Floats(tr.Samples)
	}
	return h.Sum()
}

// foldQoS mixes a QoS spec into a run hash.
func foldQoS(h *checkpoint.Hasher, q QoSSpec) {
	h.Float(q.ULow).Float(q.UHigh).Float(q.UDegr).Float(q.MPercent).Int(int64(q.TDegr))
}

// validTenant bounds tenant names: they key maps and appear in logs
// and metrics, so they must be short and structurally boring.
func validTenant(name string) error {
	if len(name) > 64 {
		return fmt.Errorf("serve: tenant name longer than 64 bytes")
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("serve: tenant name %q has invalid character %q", name, r)
		}
	}
	return nil
}

// jobID renders a key as the job's public identifier.
func jobID(key uint64) string { return fmt.Sprintf("%016x", key) }
