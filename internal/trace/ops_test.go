package trace

import (
	"math"
	"testing"
	"time"
)

func hourly(t *testing.T, id string, days int, fill func(i int) float64) *Trace {
	t.Helper()
	samples := make([]float64, days*24)
	for i := range samples {
		samples[i] = fill(i)
	}
	tr, err := New(id, time.Hour, samples)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestWindow(t *testing.T) {
	tr := hourly(t, "a", 14, func(i int) float64 { return float64(i) })
	win, err := tr.Window(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if win.Days() != 3 {
		t.Errorf("window days = %d, want 3", win.Days())
	}
	if win.Samples[0] != 48 || win.Samples[len(win.Samples)-1] != 48+3*24-1 {
		t.Errorf("window content wrong: first %v last %v", win.Samples[0], win.Samples[len(win.Samples)-1])
	}
	// No shared storage.
	win.Samples[0] = -1 // window copies are private; the original keeps 48
	if tr.Samples[48] != 48 {
		t.Error("Window shares storage")
	}
	for _, bad := range [][2]int{{-1, 2}, {0, 0}, {13, 2}, {0, 15}} {
		if _, err := tr.Window(bad[0], bad[1]); err == nil {
			t.Errorf("Window(%d,%d) accepted", bad[0], bad[1])
		}
	}
}

func TestLastWeeks(t *testing.T) {
	tr := hourly(t, "a", 21, func(i int) float64 { return float64(i / (7 * 24)) }) // week index
	last, err := tr.LastWeeks(2)
	if err != nil {
		t.Fatal(err)
	}
	if last.Weeks() != 2 {
		t.Errorf("weeks = %d, want 2", last.Weeks())
	}
	if last.Samples[0] != 1 || last.Samples[len(last.Samples)-1] != 2 {
		t.Errorf("LastWeeks content wrong: %v..%v", last.Samples[0], last.Samples[len(last.Samples)-1])
	}
	if _, err := tr.LastWeeks(0); err == nil {
		t.Error("LastWeeks(0) accepted")
	}
	if _, err := tr.LastWeeks(4); err == nil {
		t.Error("LastWeeks beyond history accepted")
	}
}

func TestConcat(t *testing.T) {
	a := hourly(t, "a", 1, func(i int) float64 { return 1 })
	b := hourly(t, "a", 2, func(i int) float64 { return 2 })
	out, err := a.Concat(b)
	if err != nil {
		t.Fatal(err)
	}
	if out.Days() != 3 {
		t.Errorf("days = %d, want 3", out.Days())
	}
	if out.Samples[0] != 1 || out.Samples[30] != 2 {
		t.Error("concat content wrong")
	}

	other := hourly(t, "b", 1, func(i int) float64 { return 1 })
	if _, err := a.Concat(other); err == nil {
		t.Error("app ID mismatch accepted")
	}
	short := &Trace{AppID: "a", Interval: 30 * time.Minute, Samples: []float64{1}}
	if _, err := a.Concat(short); err == nil {
		t.Error("interval mismatch accepted")
	}
	if _, err := a.Concat(nil); err == nil {
		t.Error("nil trace accepted")
	}
}

func TestForecastWeeksMultiplicativeTrend(t *testing.T) {
	// Demand grows 10% of the base level per week with a fixed diurnal
	// shape: value = (1 + 0.1*week) * shape(pos). The mean-week /
	// weekly-level decomposition recovers it exactly.
	slotsPerWeek := 7 * 24
	shape := func(pos int) float64 { return 1 + float64(pos%24)/24 }
	samples := make([]float64, 3*slotsPerWeek)
	for i := range samples {
		week := i / slotsPerWeek
		pos := i % slotsPerWeek
		samples[i] = (1 + 0.1*float64(week)) * shape(pos)
	}
	tr, err := New("a", time.Hour, samples)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := ForecastWeeks(tr, 2)
	if err != nil {
		t.Fatal(err)
	}
	if fc.Weeks() != 2 {
		t.Fatalf("forecast weeks = %d, want 2", fc.Weeks())
	}
	for i, v := range fc.Samples {
		week := 3 + i/slotsPerWeek
		pos := i % slotsPerWeek
		want := (1 + 0.1*float64(week)) * shape(pos)
		if math.Abs(v-want) > 1e-9 {
			t.Fatalf("forecast[%d] = %v, want %v", i, v, want)
		}
	}
}

func TestForecastWeeksRobustToOneOffBurst(t *testing.T) {
	// A flat workload with a single large burst in the last week must
	// not be extrapolated into a runaway trend: the projected weekly
	// mean can only grow by the burst's contribution to the weekly
	// level, not by a per-slot slope.
	slotsPerWeek := 7 * 24
	samples := make([]float64, 4*slotsPerWeek)
	for i := range samples {
		samples[i] = 1.0
	}
	// 6-hour burst of 20 CPUs in week 3.
	for i := 3*slotsPerWeek + 40; i < 3*slotsPerWeek+46; i++ {
		samples[i] = 20
	}
	tr, err := New("a", time.Hour, samples)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := ForecastWeeks(tr, 8)
	if err != nil {
		t.Fatal(err)
	}
	peak := fc.Peak()
	if peak > 2*tr.Peak() {
		t.Errorf("forecast peak %v exploded beyond 2x the observed peak %v", peak, tr.Peak())
	}
}

func TestForecastWeeksClampsNegative(t *testing.T) {
	// Strong downward trend: projections would go negative.
	slotsPerWeek := 7 * 24
	samples := make([]float64, 2*slotsPerWeek)
	for i := range samples {
		week := i / slotsPerWeek
		samples[i] = 1 - float64(week) // 1 then 0
	}
	tr, err := New("a", time.Hour, samples)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := ForecastWeeks(tr, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range fc.Samples {
		if v < 0 {
			t.Fatalf("forecast[%d] = %v < 0", i, v)
		}
	}
	if err := fc.Validate(); err != nil {
		t.Errorf("forecast invalid: %v", err)
	}
}

func TestForecastWeeksErrors(t *testing.T) {
	oneWeek := hourly(t, "a", 7, func(i int) float64 { return 1 })
	if _, err := ForecastWeeks(oneWeek, 1); err == nil {
		t.Error("single-week history accepted")
	}
	twoWeeks := hourly(t, "a", 14, func(i int) float64 { return 1 })
	if _, err := ForecastWeeks(twoWeeks, 0); err == nil {
		t.Error("zero forecast weeks accepted")
	}
	broken := &Trace{AppID: "a", Interval: time.Hour}
	if _, err := ForecastWeeks(broken, 1); err == nil {
		t.Error("invalid trace accepted")
	}
}

func TestForecastThenConcatFeedsPlacement(t *testing.T) {
	// The intended workflow: history + forecast forms a longer trace
	// that still validates and keeps the calendar structure.
	tr := hourly(t, "a", 14, func(i int) float64 { return 1 + float64(i)/1000 })
	fc, err := ForecastWeeks(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	full, err := tr.Concat(fc)
	if err != nil {
		t.Fatal(err)
	}
	if full.Weeks() != 3 {
		t.Errorf("combined weeks = %d, want 3", full.Weeks())
	}
	if err := full.Validate(); err != nil {
		t.Error(err)
	}
}

func TestApplyGrowth(t *testing.T) {
	tr := hourly(t, "a", 1, func(i int) float64 { return 2 })
	grown, err := ApplyGrowth(tr, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range grown.Samples {
		if v != 3 {
			t.Fatalf("grown sample = %v, want 3", v)
		}
	}
	if _, err := ApplyGrowth(tr, -1); err == nil {
		t.Error("negative factor accepted")
	}
	if _, err := ApplyGrowth(tr, math.NaN()); err == nil {
		t.Error("NaN factor accepted")
	}
}
