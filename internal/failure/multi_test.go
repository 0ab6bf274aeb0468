package failure

import (
	"context"
	"reflect"
	"testing"

	"ropus/internal/placement"
)

func TestCombinations(t *testing.T) {
	tests := []struct {
		name  string
		items []int
		k     int
		want  [][]int
	}{
		{name: "choose 1", items: []int{3, 5}, k: 1, want: [][]int{{3}, {5}}},
		{
			name: "choose 2 of 3", items: []int{0, 1, 2}, k: 2,
			want: [][]int{{0, 1}, {0, 2}, {1, 2}},
		},
		{name: "choose all", items: []int{7, 8}, k: 2, want: [][]int{{7, 8}}},
		{name: "k too big", items: []int{1}, k: 2, want: nil},
		{name: "k zero", items: []int{1}, k: 0, want: nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Combinations(tt.items, tt.k)
			if !reflect.DeepEqual(got, tt.want) {
				t.Errorf("combinations = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestAnalyzeMultiMatchesSingle(t *testing.T) {
	p := problem([]float64{6, 6, 6}, 3, 10)
	base, err := placement.Evaluate(p, placement.Assignment{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	in := Input{Problem: p, FailureApps: failureApps(p, 0.5), GA: ga()}

	single, err := Analyze(context.Background(), in, base)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := AnalyzeMulti(context.Background(), in, base, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(multi.Scenarios) != len(single.Scenarios) {
		t.Fatalf("k=1 has %d scenarios, Analyze has %d", len(multi.Scenarios), len(single.Scenarios))
	}
	for i := range multi.Scenarios {
		if multi.Scenarios[i].Feasible != single.Scenarios[i].Feasible {
			t.Errorf("scenario %d feasibility differs", i)
		}
	}
	if multi.SparesNeeded != single.SpareNeeded {
		t.Error("k=1 verdict differs from single-failure analysis")
	}
}

func TestAnalyzeMultiDoubleFailure(t *testing.T) {
	// Four servers at load 5 each on 10-CPU servers; failure demand is
	// halved. A double failure moves 2*2.5 = 5 extra onto two servers
	// already at 5: feasible (5+2.5 each).
	p := problem([]float64{5, 5, 5, 5}, 4, 10)
	base, err := placement.Evaluate(p, placement.Assignment{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	in := Input{Problem: p, FailureApps: failureApps(p, 0.5), GA: ga()}
	report, err := AnalyzeMulti(context.Background(), in, base, 2)
	if err != nil {
		t.Fatal(err)
	}
	if report.K != 2 {
		t.Errorf("K = %d, want 2", report.K)
	}
	if len(report.Scenarios) != 6 { // C(4,2)
		t.Fatalf("%d scenarios, want 6", len(report.Scenarios))
	}
	if report.SparesNeeded {
		t.Error("double failure should be absorbable at factor 0.5")
	}
	for _, sc := range report.Scenarios {
		if len(sc.FailedServers) != 2 || len(sc.AffectedApps) != 2 {
			t.Errorf("scenario %s: %d failed, %d affected", sc.Key(), len(sc.FailedServers), len(sc.AffectedApps))
		}
		if len(sc.Servers) != 2 {
			t.Errorf("scenario %s: %d surviving servers, want 2", sc.Key(), len(sc.Servers))
		}
	}
	if w := report.Worst(); w != nil {
		t.Errorf("Worst() = %v, want nil when all feasible", w)
	}
}

func TestAnalyzeMultiInfeasibleDouble(t *testing.T) {
	// Three servers at load 6 on 10-CPU servers, failure factor 0.66:
	// a single failure moves 3.96 onto one of two survivors (9.96 <=
	// 10, feasible), but a double failure dumps 2 x 3.96 onto the only
	// survivor already at 6 (13.9 > 10).
	p := problem([]float64{6, 6, 6}, 3, 10)
	base, err := placement.Evaluate(p, placement.Assignment{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	in := Input{Problem: p, FailureApps: failureApps(p, 0.66), GA: ga()}

	// Single failures are absorbable (5+5 = 10 fits)...
	single, err := AnalyzeMulti(context.Background(), in, base, 1)
	if err != nil {
		t.Fatal(err)
	}
	if single.SparesNeeded {
		t.Error("single failures should be absorbable")
	}
	// ...but double failures are not.
	double, err := AnalyzeMulti(context.Background(), in, base, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !double.SparesNeeded {
		t.Error("double failures should need spares")
	}
	if w := double.Worst(); w == nil || len(w.AffectedApps) != 2 {
		t.Errorf("Worst() = %+v, want an infeasible 2-app scenario", w)
	}
}

func TestAnalyzeMultiAllServersFail(t *testing.T) {
	p := problem([]float64{5, 5}, 2, 10)
	base, err := placement.Evaluate(p, placement.Assignment{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	in := Input{Problem: p, FailureApps: failureApps(p, 0.5), GA: ga()}
	report, err := AnalyzeMulti(context.Background(), in, base, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !report.SparesNeeded {
		t.Error("losing every server must need spares")
	}
}

func TestAnalyzeMultiArgumentErrors(t *testing.T) {
	p := problem([]float64{5, 5}, 2, 10)
	base, err := placement.Evaluate(p, placement.Assignment{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	in := Input{Problem: p, FailureApps: failureApps(p, 0.5), GA: ga()}
	if _, err := AnalyzeMulti(context.Background(), in, base, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := AnalyzeMulti(context.Background(), in, base, 3); err == nil {
		t.Error("k above used servers accepted")
	}
	if _, err := AnalyzeMulti(context.Background(), in, nil, 1); err == nil {
		t.Error("nil base plan accepted")
	}
	bad := in
	bad.FailureApps = bad.FailureApps[:1]
	if _, err := AnalyzeMulti(context.Background(), bad, base, 1); err == nil {
		t.Error("invalid input accepted")
	}
}
