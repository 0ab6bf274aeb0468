// Package scenario implements the JSON scenario DSL: a declarative
// document describing classes of correlated failures — "zone A fails",
// "any 2 servers of rack 3", "rack 1 fails and the evacuated load
// cascades", "half the pool is in maintenance at θ=0.5" — that compiles
// against a topology into the concrete failure.ScenarioSpec list the
// planner sweeps. The DSL is the operator-facing surface; the compiled
// specs are what checkpointing and determinism are defined over.
//
// Document shape:
//
//	{
//	  "economics": {
//	    "defaultRevenuePerHour": 100,
//	    "defaultPenaltyPerHour": 10,
//	    "apps": {"app-01": {"revenuePerHour": 500, "penaltyPerHour": 50}}
//	  },
//	  "scenarios": [
//	    {"name": "zone-a-down", "kind": "domain-loss", "domain": "zone-a",
//	     "probability": 0.02},
//	    {"name": "rack-pair", "kind": "k-of-domain", "domain": "zone-a", "k": 2},
//	    {"name": "ripple", "kind": "cascade", "from": "zone-a-down",
//	     "overloadFactor": 0.9, "maxRounds": 6},
//	    {"name": "patch-window", "kind": "maintenance",
//	     "servers": ["srv-01"], "theta": 0.5}
//	  ]
//	}
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"ropus/internal/failure"
	"ropus/internal/topology"
)

// Scenario kinds understood by the compiler.
const (
	// KindServerLoss fails an explicit server list.
	KindServerLoss = "server-loss"
	// KindDomainLoss fails every server in a topology domain.
	KindDomainLoss = "domain-loss"
	// KindKOfDomain expands into every k-server combination of a
	// domain, one compiled scenario per combination.
	KindKOfDomain = "k-of-domain"
	// KindCascade fails a seed set (servers, a domain, or another
	// scenario named by "from") and runs the overload closure.
	KindCascade = "cascade"
	// KindMaintenance takes servers out of rotation under a degraded θ
	// commitment — a maintenance window rather than a failure.
	KindMaintenance = "maintenance"
)

// Doc is a decoded scenario document.
type Doc struct {
	// Economics prices applications for revenue-at-risk scoring;
	// omitted, every application scores zero.
	Economics *failure.Economics `json:"economics,omitempty"`
	// Scenarios are the declared scenario entries, compiled in order.
	Scenarios []Entry `json:"scenarios"`
}

// Entry is one declared scenario before compilation.
type Entry struct {
	// Name identifies the scenario; unique across the document.
	Name string `json:"name"`
	// Kind selects the scenario class (see the Kind constants).
	Kind string `json:"kind"`
	// Domain names a topology domain (domain-loss, k-of-domain, and as
	// the seed of cascade/maintenance).
	Domain string `json:"domain,omitempty"`
	// Servers is an explicit server list (server-loss, and as the seed
	// of cascade/maintenance).
	Servers []string `json:"servers,omitempty"`
	// K is the combination size for k-of-domain.
	K int `json:"k,omitempty"`
	// From seeds a cascade with the failed set of the named scenario.
	From string `json:"from,omitempty"`
	// Theta is the degraded commitment for maintenance windows (>0) and
	// optionally any other kind.
	Theta float64 `json:"theta,omitempty"`
	// MaxRounds bounds the cascade closure; 0 selects the default.
	MaxRounds int `json:"maxRounds,omitempty"`
	// OverloadFactor scales the cascade overload threshold; 0 selects 1.
	OverloadFactor float64 `json:"overloadFactor,omitempty"`
	// Probability weights the scenario's revenue at risk; 0 selects 1.
	Probability float64 `json:"probability,omitempty"`
}

// DecodeError is the typed error for invalid scenario documents, so
// callers (and the fuzzer) can tell bad input from I/O faults.
type DecodeError struct{ Reason string }

func (e *DecodeError) Error() string { return "scenario: " + e.Reason }

func badDoc(format string, args ...any) error {
	return &DecodeError{Reason: fmt.Sprintf(format, args...)}
}

// ReadJSON decodes a scenario document and checks its document-level
// invariants. Topology-dependent resolution happens in Compile.
func ReadJSON(r io.Reader) (*Doc, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var d Doc
	if err := dec.Decode(&d); err != nil {
		return nil, &DecodeError{Reason: err.Error()}
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// Validate checks everything that does not need a topology: names,
// kinds, per-kind field constraints, and economics finiteness.
func (d *Doc) Validate() error {
	if len(d.Scenarios) == 0 {
		return badDoc("no scenarios")
	}
	if err := d.Economics.Validate(); err != nil {
		return &DecodeError{Reason: err.Error()}
	}
	names := make(map[string]bool, len(d.Scenarios))
	for i, e := range d.Scenarios {
		if e.Name == "" {
			return badDoc("scenario %d has no name", i)
		}
		if strings.Contains(e.Name, "/") {
			return badDoc("scenario %q: names may not contain '/' (reserved for k-of-domain expansion)", e.Name)
		}
		if names[e.Name] {
			return badDoc("duplicate scenario name %q", e.Name)
		}
		names[e.Name] = true
		if err := e.validate(); err != nil {
			return err
		}
	}
	// From references must name a declared scenario; cycles are caught
	// here so Compile can resolve seeds without re-checking.
	for _, e := range d.Scenarios {
		if e.From == "" {
			continue
		}
		if !names[e.From] {
			return badDoc("scenario %q: from references unknown scenario %q", e.Name, e.From)
		}
	}
	return d.checkFromCycles()
}

func (e Entry) validate() error {
	bad := func(format string, args ...any) error {
		return badDoc("scenario %q: "+format, append([]any{e.Name}, args...)...)
	}
	seen := make(map[string]bool, len(e.Servers))
	for _, s := range e.Servers {
		if s == "" {
			return bad("lists an empty server ID")
		}
		if seen[s] {
			return bad("lists server %q twice", s)
		}
		seen[s] = true
	}
	if e.Theta < 0 || e.Theta > 1 {
		return bad("theta %v outside [0, 1]", e.Theta)
	}
	if e.Probability < 0 || e.Probability > 1 {
		return bad("probability %v outside [0, 1]", e.Probability)
	}
	if e.MaxRounds < 0 {
		return bad("maxRounds %d < 0", e.MaxRounds)
	}
	if e.OverloadFactor < 0 {
		return bad("overloadFactor %v < 0", e.OverloadFactor)
	}
	needSeed := func(allowFrom bool) error {
		hasServers, hasDomain := len(e.Servers) > 0, e.Domain != ""
		hasFrom := e.From != ""
		n := 0
		for _, b := range []bool{hasServers, hasDomain, hasFrom} {
			if b {
				n++
			}
		}
		if hasFrom && !allowFrom {
			return bad("%s does not accept from", e.Kind)
		}
		if n == 0 {
			if allowFrom {
				return bad("%s needs servers, a domain, or from", e.Kind)
			}
			return bad("%s needs servers or a domain", e.Kind)
		}
		if n > 1 {
			return bad("%s accepts exactly one of servers, domain%s", e.Kind,
				map[bool]string{true: ", from", false: ""}[allowFrom])
		}
		return nil
	}
	switch e.Kind {
	case KindServerLoss:
		if len(e.Servers) == 0 {
			return bad("server-loss needs servers")
		}
		if e.Domain != "" || e.From != "" {
			return bad("server-loss takes only servers")
		}
	case KindDomainLoss:
		if e.Domain == "" {
			return bad("domain-loss needs a domain")
		}
		if len(e.Servers) > 0 || e.From != "" {
			return bad("domain-loss takes only a domain")
		}
	case KindKOfDomain:
		if e.Domain == "" {
			return bad("k-of-domain needs a domain")
		}
		if len(e.Servers) > 0 || e.From != "" {
			return bad("k-of-domain takes only a domain")
		}
		if e.K < 1 {
			return bad("k-of-domain needs k >= 1, got %d", e.K)
		}
	case KindCascade:
		if err := needSeed(true); err != nil {
			return err
		}
	case KindMaintenance:
		if err := needSeed(false); err != nil {
			return err
		}
		if e.Theta <= 0 {
			return bad("maintenance needs theta > 0")
		}
	case "":
		return bad("has no kind")
	default:
		return bad("unknown kind %q", e.Kind)
	}
	if e.Kind != KindCascade && (e.MaxRounds != 0 || e.OverloadFactor != 0) {
		return bad("maxRounds/overloadFactor apply only to cascade")
	}
	return nil
}

// checkFromCycles walks every from chain with a step bound of the
// entry count; a cycle never terminates, so exceeding the bound is a
// cycle. (Validate has already checked that every From resolves.)
func (d *Doc) checkFromCycles() error {
	byName := make(map[string]Entry, len(d.Scenarios))
	for _, e := range d.Scenarios {
		byName[e.Name] = e
	}
	for _, e := range d.Scenarios {
		cur, steps := e.From, 0
		for cur != "" {
			if steps++; steps > len(d.Scenarios) {
				return badDoc("cyclic from reference through scenario %q", e.Name)
			}
			cur = byName[cur].From
		}
	}
	return nil
}

// Compile resolves the document against a topology (nil is accepted
// when no entry references a domain) into the concrete spec list the
// failure planner sweeps. k-of-domain entries expand into one spec per
// combination, named "<entry>/<s1>+<s2>+...". Compilation is
// deterministic: specs come out in document order, combinations in
// lexicographic server order.
func (d *Doc) Compile(topo *topology.Topology) ([]failure.ScenarioSpec, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	byName := make(map[string]Entry, len(d.Scenarios))
	for _, e := range d.Scenarios {
		byName[e.Name] = e
	}
	var specs []failure.ScenarioSpec
	for _, e := range d.Scenarios {
		if e.Kind == KindKOfDomain {
			servers, err := domainServers(topo, e.Name, e.Domain)
			if err != nil {
				return nil, err
			}
			if e.K > len(servers) {
				return nil, badDoc("scenario %q: k=%d exceeds the %d servers of domain %q",
					e.Name, e.K, len(servers), e.Domain)
			}
			for _, combo := range failure.Combinations(servers, e.K) {
				specs = append(specs, failure.ScenarioSpec{
					Name:        e.Name + "/" + strings.Join(combo, "+"),
					Servers:     combo,
					Theta:       e.Theta,
					Probability: e.Probability,
				})
			}
			continue
		}
		seed, err := resolveSeed(topo, byName, e, 0)
		if err != nil {
			return nil, err
		}
		specs = append(specs, failure.ScenarioSpec{
			Name:           e.Name,
			Servers:        seed,
			Theta:          e.Theta,
			Cascade:        e.Kind == KindCascade,
			MaxRounds:      e.MaxRounds,
			OverloadFactor: e.OverloadFactor,
			Probability:    e.Probability,
		})
	}
	return specs, nil
}

// resolveSeed produces an entry's initial failed set: explicit servers,
// a domain's transitive membership, or (for cascades) the resolved seed
// of the referenced scenario. depth guards the recursion; Validate has
// already rejected cycles, so the bound is belt-and-braces.
func resolveSeed(topo *topology.Topology, byName map[string]Entry, e Entry, depth int) ([]string, error) {
	if depth > len(byName) {
		return nil, badDoc("cyclic from reference through scenario %q", e.Name)
	}
	switch {
	case len(e.Servers) > 0:
		out := append([]string(nil), e.Servers...)
		sort.Strings(out)
		return out, nil
	case e.Domain != "":
		return domainServers(topo, e.Name, e.Domain)
	case e.From != "":
		ref := byName[e.From]
		if ref.Kind == KindKOfDomain {
			return nil, badDoc("scenario %q: from may not reference k-of-domain scenario %q (it expands to many sets)",
				e.Name, e.From)
		}
		return resolveSeed(topo, byName, ref, depth+1)
	}
	return nil, badDoc("scenario %q has no failed set", e.Name)
}

func domainServers(topo *topology.Topology, scenarioName, domain string) ([]string, error) {
	if topo == nil {
		return nil, fmt.Errorf("scenario %q: %w", scenarioName, topology.ErrNoTopology)
	}
	servers, err := topo.ServersIn(domain)
	if err != nil {
		return nil, badDoc("scenario %q: %v", scenarioName, err)
	}
	if len(servers) == 0 {
		return nil, badDoc("scenario %q: domain %q contains no servers", scenarioName, domain)
	}
	return servers, nil
}
