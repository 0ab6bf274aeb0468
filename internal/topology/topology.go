// Package topology models the physical structure of a shared resource
// pool: servers grouped into racks, racks into zones, and cross-cutting
// power domains. Failure planning uses it to turn "zone A fails" into a
// concrete set of servers, which is how shared pools actually fail —
// correlated groups, not one machine at a time.
//
// The model is a forest of domains. Each domain has a kind (rack, zone,
// power, or anything else the operator names), an optional parent, and
// a set of member servers. Membership is transitive: the servers of a
// zone are the servers of every rack inside it plus any listed
// directly. A server may appear under several domains of different
// kinds (its rack and its power feed), which is exactly the
// cross-cutting structure that makes correlated failures interesting.
package topology

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
)

// Well-known domain kinds. Kind is free-form; these are the ones the
// synthesizer emits and the documentation names.
const (
	KindZone  = "zone"
	KindRack  = "rack"
	KindPower = "power"
)

// Domain is one node of the topology forest.
type Domain struct {
	// ID names the domain; unique across the topology.
	ID string `json:"id"`
	// Kind classifies the domain (zone, rack, power, ...).
	Kind string `json:"kind"`
	// Parent is the enclosing domain's ID; empty for a root.
	Parent string `json:"parent,omitempty"`
	// Servers are the member servers listed directly on this domain
	// (children contribute theirs transitively).
	Servers []string `json:"servers,omitempty"`
}

// Topology is a validated forest of domains.
type Topology struct {
	Domains []Domain `json:"domains"`

	// byID indexes Domains; children maps a domain to its child IDs.
	// Both are built by Validate.
	byID     map[string]*Domain
	children map[string][]string
}

// DecodeError is the typed error for structurally invalid topology
// documents, so fuzzers and callers can tell bad input from I/O faults.
type DecodeError struct{ Reason string }

func (e *DecodeError) Error() string { return "topology: " + e.Reason }

// ReadJSON decodes and validates a topology document.
func ReadJSON(r io.Reader) (*Topology, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var t Topology
	if err := dec.Decode(&t); err != nil {
		return nil, &DecodeError{Reason: err.Error()}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// WriteJSON renders the topology as indented JSON.
func (t *Topology) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// Validate checks the forest's structural invariants and builds the
// lookup indexes: unique domain IDs, parents that exist, no parent
// cycles, and no duplicate server within a single domain's direct list.
func (t *Topology) Validate() error {
	if len(t.Domains) == 0 {
		return &DecodeError{Reason: "no domains"}
	}
	t.byID = make(map[string]*Domain, len(t.Domains))
	t.children = make(map[string][]string)
	for i := range t.Domains {
		d := &t.Domains[i]
		if d.ID == "" {
			return &DecodeError{Reason: fmt.Sprintf("domain %d has no ID", i)}
		}
		if d.Kind == "" {
			return &DecodeError{Reason: fmt.Sprintf("domain %q has no kind", d.ID)}
		}
		if _, dup := t.byID[d.ID]; dup {
			return &DecodeError{Reason: fmt.Sprintf("duplicate domain ID %q", d.ID)}
		}
		t.byID[d.ID] = d
		seen := make(map[string]bool, len(d.Servers))
		for _, s := range d.Servers {
			if s == "" {
				return &DecodeError{Reason: fmt.Sprintf("domain %q lists an empty server ID", d.ID)}
			}
			if seen[s] {
				return &DecodeError{Reason: fmt.Sprintf("domain %q lists server %q twice", d.ID, s)}
			}
			seen[s] = true
		}
	}
	for i := range t.Domains {
		d := &t.Domains[i]
		if d.Parent == "" {
			continue
		}
		if d.Parent == d.ID {
			return &DecodeError{Reason: fmt.Sprintf("domain %q is its own parent", d.ID)}
		}
		if _, ok := t.byID[d.Parent]; !ok {
			return &DecodeError{Reason: fmt.Sprintf("domain %q has unknown parent %q", d.ID, d.Parent)}
		}
		t.children[d.Parent] = append(t.children[d.Parent], d.ID)
	}
	// Parent chains must terminate: walk each domain rootwards with a
	// step bound of the domain count. (A cycle never reaches a root.)
	for _, d := range t.Domains {
		cur, steps := d.Parent, 0
		for cur != "" {
			if steps++; steps > len(t.Domains) {
				return &DecodeError{Reason: fmt.Sprintf("parent cycle through domain %q", d.ID)}
			}
			cur = t.byID[cur].Parent
		}
	}
	return nil
}

// Domain returns the named domain, if present. Validate must have run
// (ReadJSON and Synthesize both do).
func (t *Topology) Domain(id string) (*Domain, bool) {
	d, ok := t.byID[id]
	return d, ok
}

// DomainsOfKind lists the IDs of every domain of the given kind, in
// document order.
func (t *Topology) DomainsOfKind(kind string) []string {
	var out []string
	for _, d := range t.Domains {
		if d.Kind == kind {
			out = append(out, d.ID)
		}
	}
	return out
}

// ServersIn returns the transitive server membership of a domain —
// its direct servers plus those of every descendant — sorted and
// deduplicated, so callers get a deterministic failure set.
func (t *Topology) ServersIn(id string) ([]string, error) {
	if _, ok := t.byID[id]; !ok {
		return nil, fmt.Errorf("topology: unknown domain %q", id)
	}
	seen := make(map[string]bool)
	stack := []string{id}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range t.byID[cur].Servers {
			seen[s] = true
		}
		stack = append(stack, t.children[cur]...)
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out, nil
}

// GenConfig parameterizes Synthesize.
type GenConfig struct {
	// Servers is the pool size; server IDs are ServerID(i) for
	// i in [0, Servers).
	Servers int
	// Zones is the number of zones; racks are split evenly across them.
	Zones int
	// RacksPerZone is the number of racks inside each zone.
	RacksPerZone int
	// PowerDomains stripes servers across independent power feeds
	// (server i belongs to feed i mod PowerDomains); 0 disables them.
	PowerDomains int
	// ServerID names server i; nil selects srv-01, srv-02, ...
	// matching the placement problems core builds.
	ServerID func(i int) string
}

// Synthesize builds a deterministic topology for a synthetic pool:
// servers round-robined into racks, racks nested into zones, and
// optional power domains cutting across both. The result depends only
// on the configuration.
func Synthesize(cfg GenConfig) (*Topology, error) {
	if cfg.Servers <= 0 {
		return nil, fmt.Errorf("topology: Servers %d <= 0", cfg.Servers)
	}
	if cfg.Zones <= 0 || cfg.RacksPerZone <= 0 {
		return nil, fmt.Errorf("topology: need positive Zones and RacksPerZone, got %d/%d",
			cfg.Zones, cfg.RacksPerZone)
	}
	if cfg.PowerDomains < 0 {
		return nil, fmt.Errorf("topology: PowerDomains %d < 0", cfg.PowerDomains)
	}
	name := cfg.ServerID
	if name == nil {
		name = func(i int) string { return fmt.Sprintf("srv-%02d", i+1) }
	}
	racks := cfg.Zones * cfg.RacksPerZone
	if racks > cfg.Servers {
		return nil, fmt.Errorf("topology: %d racks for %d servers", racks, cfg.Servers)
	}
	t := &Topology{}
	for z := 0; z < cfg.Zones; z++ {
		t.Domains = append(t.Domains, Domain{
			ID:   fmt.Sprintf("zone-%c", 'a'+z),
			Kind: KindZone,
		})
	}
	rackServers := make([][]string, racks)
	for i := 0; i < cfg.Servers; i++ {
		r := i % racks
		rackServers[r] = append(rackServers[r], name(i))
	}
	for r := 0; r < racks; r++ {
		t.Domains = append(t.Domains, Domain{
			ID:      fmt.Sprintf("rack-%02d", r+1),
			Kind:    KindRack,
			Parent:  fmt.Sprintf("zone-%c", 'a'+r/cfg.RacksPerZone),
			Servers: rackServers[r],
		})
	}
	for p := 0; p < cfg.PowerDomains; p++ {
		var members []string
		for i := p; i < cfg.Servers; i += cfg.PowerDomains {
			members = append(members, name(i))
		}
		t.Domains = append(t.Domains, Domain{
			ID:      fmt.Sprintf("power-%02d", p+1),
			Kind:    KindPower,
			Servers: members,
		})
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// ErrNoTopology reports an operation that needs a topology when none
// was provided (scenario compilation with domain references).
var ErrNoTopology = errors.New("topology: scenario references a domain but no topology was provided")
