package topology

import (
	"bytes"
	"strings"
	"testing"
)

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{"empty", `{"domains":[]}`, "no domains"},
		{"dup id", `{"domains":[{"id":"a","kind":"zone"},{"id":"a","kind":"rack"}]}`, "duplicate domain ID"},
		{"no kind", `{"domains":[{"id":"a"}]}`, "no kind"},
		{"unknown parent", `{"domains":[{"id":"a","kind":"rack","parent":"nope"}]}`, "unknown parent"},
		{"self parent", `{"domains":[{"id":"a","kind":"rack","parent":"a"}]}`, "own parent"},
		{"cycle", `{"domains":[{"id":"a","kind":"zone","parent":"b"},{"id":"b","kind":"zone","parent":"a"}]}`, "cycle"},
		{"dup server", `{"domains":[{"id":"a","kind":"rack","servers":["s1","s1"]}]}`, "twice"},
		{"empty server", `{"domains":[{"id":"a","kind":"rack","servers":[""]}]}`, "empty server"},
		{"unknown field", `{"domains":[{"id":"a","kind":"rack","bogus":1}]}`, "bogus"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadJSON(strings.NewReader(tc.doc))
			if err == nil {
				t.Fatalf("ReadJSON accepted %s", tc.doc)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestServersInClosure(t *testing.T) {
	doc := `{"domains":[
		{"id":"zone-a","kind":"zone"},
		{"id":"rack-1","kind":"rack","parent":"zone-a","servers":["srv-03","srv-01"]},
		{"id":"rack-2","kind":"rack","parent":"zone-a","servers":["srv-02"]},
		{"id":"power-1","kind":"power","servers":["srv-01","srv-02"]}
	]}`
	topo, err := ReadJSON(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	got, err := topo.ServersIn("zone-a")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"srv-01", "srv-02", "srv-03"}
	if len(got) != len(want) {
		t.Fatalf("zone-a servers = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("zone-a servers = %v, want %v (sorted)", got, want)
		}
	}
	if _, err := topo.ServersIn("nope"); err == nil {
		t.Error("ServersIn accepted an unknown domain")
	}
	if kinds := topo.DomainsOfKind(KindRack); len(kinds) != 2 {
		t.Errorf("DomainsOfKind(rack) = %v", kinds)
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	cfg := GenConfig{Servers: 9, Zones: 2, RacksPerZone: 2, PowerDomains: 3}
	a, err := Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var bufA, bufB bytes.Buffer
	if err := a.WriteJSON(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteJSON(&bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Error("Synthesize is not deterministic")
	}
	// Every server lands in exactly one rack and one power domain.
	counts := make(map[string]int)
	for _, rack := range a.DomainsOfKind(KindRack) {
		srvs, err := a.ServersIn(rack)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range srvs {
			counts[s]++
		}
	}
	for s, n := range counts {
		if n != 1 {
			t.Errorf("server %s appears in %d racks", s, n)
		}
	}
	if len(counts) != 9 {
		t.Errorf("racks cover %d servers, want 9", len(counts))
	}
	// Zones partition the pool.
	zoneTotal := 0
	for _, z := range a.DomainsOfKind(KindZone) {
		srvs, err := a.ServersIn(z)
		if err != nil {
			t.Fatal(err)
		}
		zoneTotal += len(srvs)
	}
	if zoneTotal != 9 {
		t.Errorf("zones cover %d servers, want 9", zoneTotal)
	}
	// Round-trip through JSON preserves structure.
	rt, err := ReadJSON(&bufA)
	if err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if len(rt.Domains) != len(a.Domains) {
		t.Errorf("round-trip lost domains: %d vs %d", len(rt.Domains), len(a.Domains))
	}
}

func TestSynthesizeRejections(t *testing.T) {
	for _, cfg := range []GenConfig{
		{Servers: 0, Zones: 1, RacksPerZone: 1},
		{Servers: 4, Zones: 0, RacksPerZone: 1},
		{Servers: 2, Zones: 2, RacksPerZone: 2}, // more racks than servers
		{Servers: 4, Zones: 1, RacksPerZone: 1, PowerDomains: -1},
	} {
		if _, err := Synthesize(cfg); err == nil {
			t.Errorf("Synthesize(%+v) succeeded, want error", cfg)
		}
	}
}
