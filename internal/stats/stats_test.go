package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestPercentile(t *testing.T) {
	tests := []struct {
		name    string
		samples []float64
		p       float64
		want    float64
	}{
		{name: "single sample any percentile", samples: []float64{5}, p: 50, want: 5},
		{name: "min", samples: []float64{1, 2, 3, 4, 5}, p: 0, want: 1},
		{name: "max", samples: []float64{1, 2, 3, 4, 5}, p: 100, want: 5},
		{name: "median odd", samples: []float64{1, 2, 3, 4, 5}, p: 50, want: 3},
		{name: "median even interpolated", samples: []float64{1, 2, 3, 4}, p: 50, want: 2.5},
		{name: "quartile interpolated", samples: []float64{0, 10}, p: 25, want: 2.5},
		{name: "unsorted input", samples: []float64{5, 1, 4, 2, 3}, p: 100, want: 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Percentile(tt.samples, tt.p)
			if err != nil {
				t.Fatalf("Percentile() error = %v", err)
			}
			if !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Percentile(%v, %v) = %v, want %v", tt.samples, tt.p, got, tt.want)
			}
		})
	}
}

func TestPercentileErrors(t *testing.T) {
	if _, err := Percentile(nil, 50); err == nil {
		t.Error("Percentile(nil) should fail")
	}
	if _, err := Percentile([]float64{1}, -1); err == nil {
		t.Error("Percentile(p=-1) should fail")
	}
	if _, err := Percentile([]float64{1}, 101); err == nil {
		t.Error("Percentile(p=101) should fail")
	}
	if _, err := PercentileSorted(nil, 50); err == nil {
		t.Error("PercentileSorted(nil) should fail")
	}
	if _, err := PercentileSorted([]float64{1}, 200); err == nil {
		t.Error("PercentileSorted(p=200) should fail")
	}
	if _, err := Percentiles(nil, []float64{50}); err == nil {
		t.Error("Percentiles(nil) should fail")
	}
	if _, err := Percentiles([]float64{1}, []float64{-5}); err == nil {
		t.Error("Percentiles(p=-5) should fail")
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	if _, err := Percentile(in, 50); err != nil {
		t.Fatal(err)
	}
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("input mutated: %v", in)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	samples := []float64{5, 1, 4, 2, 3}
	tests := []struct {
		p    float64
		want float64
	}{
		{p: 0, want: 1},
		{p: 20, want: 1},
		{p: 20.1, want: 2},
		{p: 60, want: 3},
		{p: 97, want: 5},
		{p: 100, want: 5},
	}
	for _, tt := range tests {
		got, err := PercentileNearestRank(samples, tt.p)
		if err != nil {
			t.Fatal(err)
		}
		if got != tt.want {
			t.Errorf("PercentileNearestRank(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if _, err := PercentileNearestRank(nil, 50); err == nil {
		t.Error("empty input should fail")
	}
	if _, err := PercentileNearestRank(samples, 101); err == nil {
		t.Error("p=101 should fail")
	}
}

// nearestRankBySort is the sort-based definition PercentileNearestRank
// used to compute directly; the selection must agree with it exactly.
func nearestRankBySort(samples []float64, p float64) float64 {
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	k := int(math.Ceil(p / 100 * float64(len(sorted))))
	if k < 1 {
		k = 1
	}
	if k > len(sorted) {
		k = len(sorted)
	}
	return sorted[k-1]
}

// TestNearestRankSelectionMatchesSort pins the selection to the sort on
// the shapes that break partition schemes: heavy duplicates, all-equal,
// sorted and reversed runs, NaNs, n = 1, and the p = 0 / p = 100 ends.
func TestNearestRankSelectionMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := map[string]func(n int) []float64{
		"random":     func(n int) []float64 { return fill(n, func(int) float64 { return rng.Float64() * 16 }) },
		"duplicates": func(n int) []float64 { return fill(n, func(int) float64 { return float64(rng.Intn(4)) }) },
		"all-equal":  func(n int) []float64 { return fill(n, func(int) float64 { return 2.5 }) },
		"ascending":  func(n int) []float64 { return fill(n, func(i int) float64 { return float64(i) }) },
		"descending": func(n int) []float64 { return fill(n, func(i int) float64 { return float64(-i) }) },
		"organ-pipe": func(n int) []float64 {
			return fill(n, func(i int) float64 { return math.Min(float64(i), float64(n-i)) })
		},
		"capped": func(n int) []float64 {
			return fill(n, func(int) float64 { return math.Min(rng.ExpFloat64(), 1.5) })
		},
		"with-nans": func(n int) []float64 {
			return fill(n, func(i int) float64 {
				if i%5 == 0 {
					return math.NaN()
				}
				return rng.NormFloat64()
			})
		},
	}
	for name, gen := range shapes {
		for _, n := range []int{1, 2, 3, 15, 16, 17, 100, 1000, 8064} {
			samples := gen(n)
			before := append([]float64(nil), samples...)
			for _, p := range []float64{0, 0.01, 3, 50, 97, 99.99, 100, rng.Float64() * 100} {
				got, err := PercentileNearestRank(samples, p)
				if err != nil {
					t.Fatalf("%s n=%d p=%v: %v", name, n, p, err)
				}
				if want := nearestRankBySort(samples, p); math.Float64bits(got) != math.Float64bits(want) &&
					!(math.IsNaN(got) && math.IsNaN(want)) {
					t.Errorf("%s n=%d p=%v: selection %v, sort %v", name, n, p, got, want)
				}
			}
			for i := range samples {
				if math.Float64bits(samples[i]) != math.Float64bits(before[i]) {
					t.Fatalf("%s n=%d: caller's samples reordered at %d", name, n, i)
				}
			}
		}
	}
}

func fill(n int, f func(i int) float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = f(i)
	}
	return out
}

func TestQuickNearestRankBudget(t *testing.T) {
	// The defining property: at most (100-p)% of samples are strictly
	// greater than the result.
	f := func(raw []uint16, pRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]float64, len(raw))
		for i, v := range raw {
			samples[i] = float64(v)
		}
		p := float64(pRaw) / 255 * 100
		v, err := PercentileNearestRank(samples, p)
		if err != nil {
			return false
		}
		n := 0
		for _, s := range samples {
			if s > v {
				n++
			}
		}
		return float64(n) <= (100-p)/100*float64(len(samples))+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentilesMatchesSingleCalls(t *testing.T) {
	samples := []float64{9, 4, 7, 1, 3, 8, 2, 6, 5}
	ps := []float64{0, 25, 50, 90, 100}
	multi, err := Percentiles(samples, ps)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range ps {
		single, err := Percentile(samples, p)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(multi[i], single, 1e-12) {
			t.Errorf("Percentiles()[%d]=%v, Percentile(%v)=%v", i, multi[i], p, single)
		}
	}
}

func TestQuickPercentileWithinBounds(t *testing.T) {
	f := func(raw []float64, pRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			samples = append(samples, v)
		}
		if len(samples) == 0 {
			return true
		}
		p := float64(pRaw) / 255 * 100
		got, err := Percentile(samples, p)
		if err != nil {
			return false
		}
		lo, _ := Min(samples)
		hi, _ := Max(samples)
		return got >= lo-1e-9 && got <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickPercentileMonotoneInP(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(50)
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = rng.NormFloat64() * 10
		}
		sorted := make([]float64, n)
		copy(sorted, samples)
		sort.Float64s(sorted)
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 2.5 {
			v, err := PercentileSorted(sorted, p)
			if err != nil {
				t.Fatal(err)
			}
			if v < prev-1e-9 {
				t.Fatalf("percentile not monotone: P%.1f=%v < %v", p, v, prev)
			}
			prev = v
		}
	}
}

func TestMinMaxMean(t *testing.T) {
	samples := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got, _ := Min(samples); got != 2 {
		t.Errorf("Min = %v, want 2", got)
	}
	if got, _ := Max(samples); got != 9 {
		t.Errorf("Max = %v, want 9", got)
	}
	if got, _ := Mean(samples); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	for _, fn := range []func([]float64) (float64, error){Min, Max, Mean} {
		if _, err := fn(nil); err == nil {
			t.Error("expected error on empty input")
		}
	}
}

func TestSummarize(t *testing.T) {
	samples := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	s, err := Summarize(samples)
	if err != nil {
		t.Fatal(err)
	}
	want := Summary{Count: 8, Min: 2, Max: 9, Mean: 5, StdDev: 2}
	if s.Count != want.Count || s.Min != want.Min || s.Max != want.Max ||
		!almostEqual(s.Mean, want.Mean, 1e-12) || !almostEqual(s.StdDev, want.StdDev, 1e-12) {
		t.Errorf("Summarize = %+v, want %+v", s, want)
	}
	if _, err := Summarize(nil); err == nil {
		t.Error("Summarize(nil) should fail")
	}
}

func TestRunsAbove(t *testing.T) {
	tests := []struct {
		name      string
		samples   []float64
		threshold float64
		want      []Run
	}{
		{name: "empty", samples: nil, threshold: 1, want: nil},
		{name: "none above", samples: []float64{1, 1, 1}, threshold: 2, want: nil},
		{
			name: "all above", samples: []float64{3, 3, 3}, threshold: 2,
			want: []Run{{Start: 0, Length: 3}},
		},
		{
			name: "two runs", samples: []float64{5, 1, 5, 5, 1, 5}, threshold: 2,
			want: []Run{{Start: 0, Length: 1}, {Start: 2, Length: 2}, {Start: 5, Length: 1}},
		},
		{
			name: "boundary not above", samples: []float64{2, 2}, threshold: 2,
			want: nil,
		},
		{
			name: "run at tail", samples: []float64{1, 3, 3}, threshold: 2,
			want: []Run{{Start: 1, Length: 2}},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := RunsAbove(tt.samples, tt.threshold)
			if len(got) != len(tt.want) {
				t.Fatalf("RunsAbove = %v, want %v", got, tt.want)
			}
			for i := range got {
				if got[i] != tt.want[i] {
					t.Errorf("run %d = %v, want %v", i, got[i], tt.want[i])
				}
			}
		})
	}
}

func TestLongestRunAbove(t *testing.T) {
	samples := []float64{5, 1, 5, 5, 5, 1, 5}
	got := LongestRunAbove(samples, 2)
	if got != (Run{Start: 2, Length: 3}) {
		t.Errorf("LongestRunAbove = %v, want {2 3}", got)
	}
	if got := LongestRunAbove(samples, 10); got.Length != 0 {
		t.Errorf("LongestRunAbove above max = %v, want zero run", got)
	}
}

func TestQuickRunsCoverExactlyExceedances(t *testing.T) {
	f := func(raw []float64, threshold float64) bool {
		if math.IsNaN(threshold) {
			return true
		}
		samples := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) {
				samples = append(samples, v)
			}
		}
		runs := RunsAbove(samples, threshold)
		covered := make(map[int]bool)
		prevEnd := -1
		for _, r := range runs {
			if r.Length <= 0 || r.Start <= prevEnd {
				return false // runs must be non-empty, ordered, disjoint
			}
			prevEnd = r.Start + r.Length - 1
			for i := r.Start; i < r.Start+r.Length; i++ {
				covered[i] = true
			}
		}
		for i, v := range samples {
			if (v > threshold) != covered[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCorrelation(t *testing.T) {
	up := []float64{1, 2, 3, 4}
	down := []float64{4, 3, 2, 1}
	flat := []float64{5, 5, 5, 5}

	if c, err := Correlation(up, up); err != nil || !almostEqual(c, 1, 1e-12) {
		t.Errorf("Correlation(up,up) = %v, %v; want 1", c, err)
	}
	if c, err := Correlation(up, down); err != nil || !almostEqual(c, -1, 1e-12) {
		t.Errorf("Correlation(up,down) = %v, %v; want -1", c, err)
	}
	if c, err := Correlation(up, flat); err != nil || c != 0 {
		t.Errorf("Correlation with zero-variance series = %v, %v; want 0", c, err)
	}
	if _, err := Correlation(nil, up); err == nil {
		t.Error("empty series accepted")
	}
	if _, err := Correlation(up, []float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestQuickCorrelationBounds(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 4 {
			return true
		}
		n := len(raw) / 2
		a := make([]float64, n)
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			a[i] = float64(raw[i])
			b[i] = float64(raw[n+i])
		}
		c, err := Correlation(a, b)
		if err != nil {
			return false
		}
		return c >= -1-1e-9 && c <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMinInRange(t *testing.T) {
	samples := []float64{9, 4, 7, 1, 3}
	v, i, err := MinInRange(samples, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 || i != 3 {
		t.Errorf("MinInRange = (%v,%d), want (1,3)", v, i)
	}
	if _, _, err := MinInRange(samples, 3, 5); err == nil {
		t.Error("out-of-bounds range should fail")
	}
	if _, _, err := MinInRange(samples, -1, 2); err == nil {
		t.Error("negative start should fail")
	}
	if _, _, err := MinInRange(samples, 0, 0); err == nil {
		t.Error("zero length should fail")
	}
}
