package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"ropus/internal/portfolio"
	"ropus/internal/qos"
	"ropus/internal/workload"
)

// referenceAggregate is the aggregate build as it was before Rebuild
// existed: two fresh slices, a left fold from zero in workload order,
// then the peaks. Rebuild into reused buffers must agree with it on
// every bit.
func referenceAggregate(workloads []Workload) (cos1, cos2 []float64, cos1Peak, totalPeak float64) {
	n := len(workloads[0].CoS1)
	cos1, cos2 = make([]float64, n), make([]float64, n)
	for _, w := range workloads {
		for i := range w.CoS1 {
			cos1[i] += w.CoS1[i]
			cos2[i] += w.CoS2[i]
		}
	}
	for i := range cos1 {
		if cos1[i] > cos1Peak {
			cos1Peak = cos1[i]
		}
		if total := cos1[i] + cos2[i]; total > totalPeak {
			totalPeak = total
		}
	}
	return cos1, cos2, cos1Peak, totalPeak
}

// sameAggregate compares an aggregate with the reference bit for bit.
func sameAggregate(t *testing.T, label string, got *Aggregate, group []Workload) {
	t.Helper()
	cos1, cos2, cos1Peak, totalPeak := referenceAggregate(group)
	if got.Slots() != len(cos1) || len(got.cos2) != len(cos2) {
		t.Fatalf("%s: %d/%d slots, want %d", label, got.Slots(), len(got.cos2), len(cos1))
	}
	for i := range cos1 {
		if math.Float64bits(got.cos1[i]) != math.Float64bits(cos1[i]) ||
			math.Float64bits(got.cos2[i]) != math.Float64bits(cos2[i]) {
			t.Fatalf("%s: slot %d = (%v, %v), want (%v, %v)", label, i, got.cos1[i], got.cos2[i], cos1[i], cos2[i])
		}
	}
	if math.Float64bits(got.CoS1Peak()) != math.Float64bits(cos1Peak) ||
		math.Float64bits(got.TotalPeak()) != math.Float64bits(totalPeak) {
		t.Fatalf("%s: peaks (%v, %v), want (%v, %v)", label, got.CoS1Peak(), got.TotalPeak(), cos1Peak, totalPeak)
	}
}

// checkBuilds holds both NewAggregate and a Rebuild into scratch —
// whatever an earlier, differently sized group left in it — to the
// reference.
func checkBuilds(t *testing.T, label string, scratch *Aggregate, group []Workload) {
	t.Helper()
	fresh, err := NewAggregate(group)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	sameAggregate(t, label+" (NewAggregate)", fresh, group)
	if err := scratch.Rebuild(group); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	sameAggregate(t, label+" (Rebuild)", scratch, group)
}

// TestRebuildMatchesReferenceCorpus runs the parity check over the
// groupings of the golden-corpus fleets (see search_golden_test.go).
func TestRebuildMatchesReferenceCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus regression is slow")
	}
	q := qos.AppQoS{ULow: 0.5, UHigh: 0.66, UDegr: 0.9, MPercent: 97, TDegr: 30 * time.Minute}
	var scratch Aggregate
	for _, seed := range []int64{3, 7, 2006} {
		set, err := workload.Fleet(workload.FleetConfig{
			Spiky: 2, Bursty: 2, Smooth: 2, Batch: 2,
			Weeks: 2, Interval: 5 * time.Minute, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		var pool []Workload
		for i := range set {
			part, err := portfolio.Translate(set[i], q, 0.60)
			if err != nil {
				t.Fatal(err)
			}
			pool = append(pool, Workload{AppID: set[i].AppID, CoS1: part.CoS1.Samples, CoS2: part.CoS2.Samples})
		}
		for _, n := range []int{len(pool), 1, 4, 2} {
			checkBuilds(t, "prefix", &scratch, pool[:n])
			checkBuilds(t, "suffix", &scratch, pool[len(pool)-n:])
		}
	}
}

// TestRebuildMatchesReferenceRandom draws 1000 random ascending groups
// from a pool of 12 apps, across trace lengths so the scratch both grows
// and shrinks. Each round draws every group size from 1 to 12, so the
// three-wide sweep folds every remainder, alone and after full sweeps.
// The pool holds a zero-demand app; an app of negative zeros (valid
// samples whose sign only survives a copy, not the 0 + x fold the
// reference takes), which every fifth group puts first; other apps
// whose samples are a quarter negative zeros, so a first sweep that
// copies shows in groups of several apps too; and an app whose peak is
// the first slot and one whose peak is the last, so a peak scan that
// misses either end shows.
func TestRebuildMatchesReferenceRandom(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	negZero := math.Copysign(0, -1)
	var scratch Aggregate
	for round := 0; round < 10; round++ {
		slots := 24 * (1 + r.Intn(14))
		pool := make([]Workload, 12)
		for i := range pool {
			w := Workload{AppID: string(rune('a' + i)), CoS1: make([]float64, slots), CoS2: make([]float64, slots)}
			for s := 0; s < slots; s++ {
				switch i {
				case 0: // zero demand
				case 1:
					w.CoS1[s], w.CoS2[s] = negZero, negZero
				default:
					w.CoS1[s], w.CoS2[s] = r.Float64()*3, r.ExpFloat64()
					if r.Intn(4) == 0 {
						w.CoS1[s] = negZero
					}
					if r.Intn(4) == 0 {
						w.CoS2[s] = negZero
					}
				}
			}
			switch i {
			case 2:
				w.CoS1[0], w.CoS2[0] = 1000, 1000
			case 3:
				w.CoS1[slots-1], w.CoS2[slots-1] = 2000, 2000
			}
			if err := w.Validate(); err != nil {
				t.Fatal(err)
			}
			pool[i] = w
		}
		for g := 0; g < 100; g++ {
			size := 1 + g%len(pool)
			var apps []int
			if g%5 == 0 && size < len(pool) {
				// The negative-zero app first: app 0 out, app 1 in.
				apps = append(apps, 1)
				for _, i := range r.Perm(len(pool) - 2)[:size-1] {
					apps = append(apps, i+2)
				}
			} else {
				apps = r.Perm(len(pool))[:size]
			}
			sort.Ints(apps)
			group := make([]Workload, 0, size)
			for _, i := range apps {
				group = append(group, pool[i])
			}
			checkBuilds(t, fmt.Sprintf("round %d, apps %v", round, apps), &scratch, group)
		}
	}
}

func TestRebuildRejectsMisalignedAndEmpty(t *testing.T) {
	a := Workload{AppID: "a", CoS1: []float64{1, 2, 3}, CoS2: []float64{0, 0, 0}}
	short := Workload{AppID: "b", CoS1: []float64{1, 2}, CoS2: []float64{0, 0}}
	ragged := Workload{AppID: "c", CoS1: []float64{1, 2, 3}, CoS2: []float64{0, 0}}
	var scratch Aggregate
	if err := scratch.Rebuild([]Workload{a, a}); err != nil {
		t.Fatal(err)
	}
	for name, group := range map[string][]Workload{
		"short second": {a, short},
		"long second":  {short, a},
		"ragged CoS2":  {a, ragged},
		"empty":        nil,
	} {
		if err := scratch.Rebuild(group); err == nil {
			t.Errorf("%s: Rebuild accepted the group", name)
		}
	}
	if _, err := NewAggregate([]Workload{a, short}); err == nil {
		t.Error("NewAggregate accepted a misaligned workload")
	}
	// NewAggregate still validates samples: its callers hand it unchecked
	// input.
	bad := Workload{AppID: "d", CoS1: []float64{1, math.NaN(), 3}, CoS2: []float64{0, 0, 0}}
	if _, err := NewAggregate([]Workload{a, bad}); err == nil {
		t.Error("NewAggregate accepted a NaN sample")
	}
}

// TestRebuildAllocs gates the point of Rebuild: on buffers that are
// large enough, summing a group allocates nothing.
func TestRebuildAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	group := make([]Workload, 5)
	for i := range group {
		group[i] = Workload{AppID: string(rune('a' + i)), CoS1: make([]float64, 2016), CoS2: make([]float64, 2016)}
		for s := range group[i].CoS1 {
			group[i].CoS1[s], group[i].CoS2[s] = r.Float64(), r.Float64()
		}
	}
	var scratch Aggregate
	if err := scratch.Rebuild(group); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if err := scratch.Rebuild(group[:3]); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm Rebuild allocates %v objects per call, want 0", allocs)
	}
}
