package trace

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func mkTrace(t *testing.T, id string, interval time.Duration, samples []float64) *Trace {
	t.Helper()
	tr, err := New(id, interval, samples)
	if err != nil {
		t.Fatalf("New(%q): %v", id, err)
	}
	return tr
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name    string
		tr      Trace
		wantErr bool
	}{
		{
			name: "valid",
			tr:   Trace{AppID: "a", Interval: 5 * time.Minute, Samples: []float64{1, 2}},
		},
		{
			name:    "no samples",
			tr:      Trace{AppID: "a", Interval: 5 * time.Minute},
			wantErr: true,
		},
		{
			name:    "zero interval",
			tr:      Trace{AppID: "a", Samples: []float64{1}},
			wantErr: true,
		},
		{
			name:    "interval does not divide a day",
			tr:      Trace{AppID: "a", Interval: 7 * time.Minute, Samples: []float64{1}},
			wantErr: true,
		},
		{
			name:    "negative demand",
			tr:      Trace{AppID: "a", Interval: time.Hour, Samples: []float64{-1}},
			wantErr: true,
		},
		{
			name:    "NaN demand",
			tr:      Trace{AppID: "a", Interval: time.Hour, Samples: []float64{math.NaN()}},
			wantErr: true,
		},
		{
			name:    "infinite demand",
			tr:      Trace{AppID: "a", Interval: time.Hour, Samples: []float64{math.Inf(1)}},
			wantErr: true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.tr.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestCalendarIndexing(t *testing.T) {
	// One-hour interval: 24 slots per day, 168 per week.
	samples := make([]float64, 2*7*24)
	tr := mkTrace(t, "a", time.Hour, samples)

	if got := tr.SlotsPerDay(); got != 24 {
		t.Errorf("SlotsPerDay = %d, want 24", got)
	}
	if got := tr.Days(); got != 14 {
		t.Errorf("Days = %d, want 14", got)
	}
	if got := tr.Weeks(); got != 2 {
		t.Errorf("Weeks = %d, want 2", got)
	}
	// Sample at week 1, day 3, slot 5.
	if got, want := tr.Index(1, 3, 5), (7+3)*24+5; got != want {
		t.Errorf("Index(1, 3, 5) = %d, want %d", got, want)
	}
}

func TestQuickIndexRoundTrip(t *testing.T) {
	samples := make([]float64, 4*7*288)
	tr := mkTrace(t, "a", DefaultInterval, samples)
	f := func(w, d, s uint16) bool {
		week := int(w) % tr.Weeks()
		dow := int(d) % 7
		slot := int(s) % tr.SlotsPerDay()
		i := tr.Index(week, dow, slot)
		spd := tr.SlotsPerDay()
		return i/(7*spd) == week && i/spd%7 == dow && i%spd == slot
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPeakPercentileMean(t *testing.T) {
	tr := mkTrace(t, "a", time.Hour, []float64{1, 2, 3, 4})
	if got := tr.Peak(); got != 4 {
		t.Errorf("Peak = %v, want 4", got)
	}
	if got := tr.Mean(); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
	p, err := tr.Percentile(50)
	if err != nil {
		t.Fatal(err)
	}
	if p != 2.5 {
		t.Errorf("Percentile(50) = %v, want 2.5", p)
	}
	var empty Trace
	if got := empty.Peak(); got != 0 {
		t.Errorf("empty Peak = %v, want 0", got)
	}
	if got := empty.Mean(); got != 0 {
		t.Errorf("empty Mean = %v, want 0", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	tr := mkTrace(t, "a", time.Hour, []float64{1, 2})
	cp := tr.Clone()
	cp.Samples[0] = 99
	if tr.Samples[0] != 1 {
		t.Error("Clone shares sample storage with original")
	}
	if cp.AppID != tr.AppID || cp.Interval != tr.Interval {
		t.Error("Clone lost metadata")
	}
}

func TestScaleMapCap(t *testing.T) {
	tr := mkTrace(t, "a", time.Hour, []float64{1, 2, 4})

	sc := tr.Scale(2)
	want := []float64{2, 4, 8}
	for i, v := range sc.Samples {
		if v != want[i] {
			t.Errorf("Scale sample %d = %v, want %v", i, v, want[i])
		}
	}

	capped := tr.Cap(1.5)
	want = []float64{1, 1.5, 1.5}
	for i, v := range capped.Samples {
		if v != want[i] {
			t.Errorf("Cap sample %d = %v, want %v", i, v, want[i])
		}
	}

	// Originals untouched.
	if tr.Samples[2] != 4 {
		t.Error("transformations mutated the original trace")
	}
}

func TestSetValidate(t *testing.T) {
	good := Set{
		mkTrace(t, "a", time.Hour, []float64{1, 2}),
		mkTrace(t, "b", time.Hour, []float64{3, 4}),
	}
	if err := good.Validate(); err != nil {
		t.Errorf("valid set rejected: %v", err)
	}

	tests := []struct {
		name string
		set  Set
	}{
		{name: "empty", set: Set{}},
		{name: "nil member", set: Set{nil}},
		{
			name: "duplicate IDs",
			set: Set{
				mkTrace(t, "a", time.Hour, []float64{1}),
				mkTrace(t, "a", time.Hour, []float64{2}),
			},
		},
		{
			name: "interval mismatch",
			set: Set{
				mkTrace(t, "a", time.Hour, []float64{1}),
				mkTrace(t, "b", 30*time.Minute, []float64{2}),
			},
		},
		{
			name: "length mismatch",
			set: Set{
				mkTrace(t, "a", time.Hour, []float64{1}),
				mkTrace(t, "b", time.Hour, []float64{2, 3}),
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.set.Validate(); err == nil {
				t.Error("Validate() should fail")
			}
		})
	}
}

func TestSetHelpers(t *testing.T) {
	set := Set{
		mkTrace(t, "a", time.Hour, []float64{1, 2}),
		mkTrace(t, "b", time.Hour, []float64{3, 1}),
	}
	if tr := set.ByID("b"); tr == nil || tr.AppID != "b" {
		t.Errorf("ByID(b) = %v", tr)
	}
	if tr := set.ByID("zz"); tr != nil {
		t.Errorf("ByID(zz) = %v, want nil", tr)
	}
	ids := set.IDs()
	if len(ids) != 2 || ids[0] != "a" || ids[1] != "b" {
		t.Errorf("IDs = %v", ids)
	}
	if got := set.TotalPeak(); got != 5 {
		t.Errorf("TotalPeak = %v, want 5", got)
	}
	agg, err := set.Sum()
	if err != nil {
		t.Fatal(err)
	}
	if agg.Samples[0] != 4 || agg.Samples[1] != 3 {
		t.Errorf("Sum samples = %v, want [4 3]", agg.Samples)
	}
	if _, err := (Set{}).Sum(); err == nil {
		t.Error("Sum of empty set should fail")
	}

	cl := set.Clone()
	cl[0].Samples[0] = 77
	if set[0].Samples[0] != 1 {
		t.Error("Set.Clone shares storage")
	}
}
