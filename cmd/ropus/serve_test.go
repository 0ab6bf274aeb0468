package main

import (
	"context"
	"maps"
	"math"
	"strconv"
	"strings"
	"testing"
)

// TestServeRejectsJournalFlags: the server keeps its journals under
// -state-dir, so -checkpoint and -resume are undefined flags there, not
// flags it accepts and ignores. The cancelled context and ephemeral
// address stop a server that does start at once.
func TestServeRejectsJournalFlags(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, arg := range []string{"-checkpoint=run.ckpt", "-resume"} {
		err := cmdServe(ctx, []string{"-state-dir", t.TempDir(), "-addr", "127.0.0.1:0", "-log-format", "off", arg})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("serve %s: got %v, want an undefined-flag error", arg, err)
		}
	}
}

// TestParsePairs pins the name=n flags of `ropus serve`: counts
// (-class-limits, -tenant-weights, -tenant-quotas) are integers >= 1,
// values (-tenant-values) are numbers in (0, 1e18], and NaN, the
// infinities, zero, negatives, malformed pairs, empty names and
// repeated names are rejected.
func TestParsePairs(t *testing.T) {
	for _, tc := range []struct {
		in     string
		counts map[string]int     // nil: rejected (or, for "", unset)
		values map[string]float64 // nil: rejected (or, for "", unset)
	}{
		{in: ""},
		{in: "gold=2,bronze=1", counts: map[string]int{"gold": 2, "bronze": 1}, values: map[string]float64{"gold": 2, "bronze": 1}},
		{in: " gold=3 ", counts: map[string]int{"gold": 3}, values: map[string]float64{"gold": 3}},
		{in: "gold=2.5", values: map[string]float64{"gold": 2.5}},
		{in: "gold=1e18", values: map[string]float64{"gold": 1e18}},
		{in: "gold"},
		{in: "gold:2"},
		{in: "gold=2,"},
		{in: "gold="},
		{in: "gold=0"},
		{in: "gold=-1"},
		{in: "gold=NaN"},
		{in: "gold=nan"},
		{in: "gold=Inf"},
		{in: "gold=+Inf"},
		{in: "gold=-Inf"},
		{in: "gold=1e19"},
		{in: "=3"},
		{in: " =3"},
		{in: "gold=2,=3"},
		{in: "gold=2,gold=5"},
		{in: "gold=2, gold=2"},
		{in: "gold=2,Gold=5", counts: map[string]int{"gold": 2, "Gold": 5}, values: map[string]float64{"gold": 2, "Gold": 5}},
	} {
		counts, err := parsePairs("-tenant-weights", tc.in, positiveCount)
		if (err == nil) != (tc.counts != nil || tc.in == "") || !maps.Equal(counts, tc.counts) {
			t.Errorf("counts %q: got %v, %v; want %v", tc.in, counts, err, tc.counts)
		}
		values, err := parsePairs("-tenant-values", tc.in, positiveValue)
		if (err == nil) != (tc.values != nil || tc.in == "") || !maps.Equal(values, tc.values) {
			t.Errorf("values %q: got %v, %v; want %v", tc.in, values, err, tc.values)
		}
	}
}

// TestSimCacheMB pins -sim-cache-mb's conversion to bytes, shared by
// `ropus serve` and the framework commands: 0 selects the default, a
// negative value disables sharing, and a value whose byte count would
// overflow an int64 is rejected by name instead of wrapping to a
// negative (disabled) or zero (default) bound. Both command paths
// reject the first overflowing value.
func TestSimCacheMB(t *testing.T) {
	for _, tc := range []struct {
		mb   int64
		want int64
		ok   bool
	}{
		{mb: 0, want: 0, ok: true},
		{mb: -1, want: -1, ok: true},
		{mb: math.MinInt64, want: -1, ok: true},
		{mb: 1, want: 1 << 20, ok: true},
		{mb: math.MaxInt64 >> 20, want: math.MaxInt64 &^ (1<<20 - 1), ok: true},
		{mb: math.MaxInt64>>20 + 1},
		{mb: 17592186044416},
		{mb: math.MaxInt64},
	} {
		got, err := simCacheBytes(tc.mb)
		if tc.ok != (err == nil) || got != tc.want {
			t.Errorf("simCacheBytes(%d) = %d, %v; want %d, ok %v", tc.mb, got, err, tc.want, tc.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "-sim-cache-mb") {
			t.Errorf("simCacheBytes(%d): error %q does not name the flag", tc.mb, err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tooBig := strconv.FormatInt(math.MaxInt64>>20+1, 10)
	err := cmdServe(ctx, []string{"-state-dir", t.TempDir(), "-addr", "127.0.0.1:0", "-log-format", "off", "-sim-cache-mb", tooBig})
	if err == nil || !strings.Contains(err.Error(), "-sim-cache-mb") {
		t.Errorf("serve -sim-cache-mb %s: got %v, want an error naming the flag", tooBig, err)
	}
	err = run([]string{"place", "-traces", writeFleet(t), "-sim-cache-mb", tooBig})
	if err == nil || !strings.Contains(err.Error(), "-sim-cache-mb") {
		t.Errorf("place -sim-cache-mb %s: got %v, want an error naming the flag", tooBig, err)
	}
}
