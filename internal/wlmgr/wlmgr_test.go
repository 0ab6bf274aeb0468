package wlmgr

import (
	"context"
	"math"
	"testing"
	"time"

	"ropus/internal/portfolio"
	"ropus/internal/qos"
	"ropus/internal/trace"
)

func caseStudyQoS() qos.AppQoS {
	return qos.AppQoS{ULow: 0.5, UHigh: 0.66, UDegr: 0.9, MPercent: 97}
}

func container(t *testing.T, id string, samples []float64, q qos.AppQoS, theta float64) Container {
	t.Helper()
	tr, err := trace.New(id, 5*time.Minute, samples)
	if err != nil {
		t.Fatal(err)
	}
	part, err := portfolio.Translate(tr, q, theta)
	if err != nil {
		t.Fatal(err)
	}
	return Container{Demand: tr, Partition: part}
}

func TestContainerValidate(t *testing.T) {
	q := caseStudyQoS()
	good := container(t, "a", []float64{1, 2}, q, 0.6)
	if err := good.Validate(); err != nil {
		t.Errorf("valid container rejected: %v", err)
	}
	if err := (Container{}).Validate(); err == nil {
		t.Error("empty container accepted")
	}
	mismatched := good
	other := container(t, "b", []float64{1, 2}, q, 0.6)
	mismatched.Partition = other.Partition
	if err := mismatched.Validate(); err == nil {
		t.Error("ID mismatch accepted")
	}
	short := container(t, "a", []float64{1, 2, 3}, q, 0.6)
	short.Demand = good.Demand
	if err := short.Validate(); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestRunArgumentErrors(t *testing.T) {
	q := caseStudyQoS()
	c := container(t, "a", []float64{1, 2}, q, 0.6)
	if _, err := Replay(context.Background(), 0, []Container{c}, Options{}); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := Replay(context.Background(), 10, nil, Options{}); err == nil {
		t.Error("no containers accepted")
	}
	if _, err := Replay(context.Background(), 10, []Container{c}, Options{Lag: -1}); err == nil {
		t.Error("negative lag accepted")
	}
	other := container(t, "b", []float64{1, 2, 3}, q, 0.6)
	if _, err := Replay(context.Background(), 10, []Container{c, other}, Options{}); err == nil {
		t.Error("misaligned containers accepted")
	}
}

func TestRunAmpleCapacityMeetsIdealUtilization(t *testing.T) {
	// With capacity to spare, every request is granted in full, so the
	// utilization of allocation is exactly Ulow wherever demand is
	// below the cap.
	q := caseStudyQoS()
	q.MPercent = 100 // no capping
	c := container(t, "a", []float64{1, 2, 1.5, 0}, q, 0.6)
	res, err := Replay(context.Background(), 100, []Container{c}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CoS1Overload != 0 {
		t.Errorf("CoS1Overload = %d, want 0", res.CoS1Overload)
	}
	cs := res.Containers[0]
	for i, d := range c.Demand.Samples {
		if d == 0 {
			if cs.Utilization[i] != 0 {
				t.Errorf("slot %d idle but utilization %v", i, cs.Utilization[i])
			}
			continue
		}
		if math.Abs(cs.Utilization[i]-q.ULow) > 1e-9 {
			t.Errorf("slot %d utilization = %v, want Ulow=%v", i, cs.Utilization[i], q.ULow)
		}
	}
}

func TestRunCoS1PriorityOverCoS2(t *testing.T) {
	// Two containers on a tight server: CoS1 requests are satisfied in
	// full before CoS2 sees any capacity.
	q := caseStudyQoS()
	q.MPercent = 100
	// theta small => large CoS1 share for a.
	a := container(t, "a", []float64{2, 2, 2, 2}, q, 0.1)
	b := container(t, "b", []float64{2, 2, 2, 2}, q, 0.1)
	part := a.Partition
	capacity := part.CoS1Peak() + b.Partition.CoS1Peak() // only CoS1 fits
	res, err := Replay(context.Background(), capacity, []Container{a, b}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CoS1Overload != 0 {
		t.Errorf("CoS1Overload = %d, want 0", res.CoS1Overload)
	}
	for _, cs := range res.Containers {
		for i, got := range cs.Received {
			want := part.CoS1.Samples[i]
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("%s slot %d received %v, want CoS1-only %v", cs.AppID, i, got, want)
			}
		}
	}
}

func TestRunProportionalCoS2Sharing(t *testing.T) {
	// Identical twins on a server that can serve all CoS1 plus half of
	// the CoS2 requests: each gets the same share.
	q := caseStudyQoS()
	q.MPercent = 100
	a := container(t, "a", []float64{2, 2}, q, 0.6)
	b := container(t, "b", []float64{2, 2}, q, 0.6)
	sumCoS1 := a.Partition.CoS1.Samples[0] + b.Partition.CoS1.Samples[0]
	sumCoS2 := a.Partition.CoS2.Samples[0] + b.Partition.CoS2.Samples[0]
	capacity := sumCoS1 + sumCoS2/2
	res, err := Replay(context.Background(), capacity, []Container{a, b}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := res.Containers[0], res.Containers[1]
	for i := range ra.Received {
		if math.Abs(ra.Received[i]-rb.Received[i]) > 1e-9 {
			t.Errorf("slot %d: twins received %v vs %v", i, ra.Received[i], rb.Received[i])
		}
		want := a.Partition.CoS1.Samples[i] + a.Partition.CoS2.Samples[i]/2
		if math.Abs(ra.Received[i]-want) > 1e-9 {
			t.Errorf("slot %d received %v, want %v", i, ra.Received[i], want)
		}
	}
}

func TestRunCoS1OverloadDetected(t *testing.T) {
	q := caseStudyQoS()
	q.MPercent = 100
	a := container(t, "a", []float64{4, 4}, q, 0.1)
	capacity := a.Partition.CoS1Peak() / 2 // even CoS1 cannot fit
	res, err := Replay(context.Background(), capacity, []Container{a}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CoS1Overload == 0 {
		t.Error("CoS1 overload not detected")
	}
}

func TestRunLagShiftsRequests(t *testing.T) {
	q := caseStudyQoS()
	q.MPercent = 100
	c := container(t, "a", []float64{1, 4, 1, 1}, q, 0.6)
	res, err := Replay(context.Background(), 100, []Container{c}, Options{Lag: 1})
	if err != nil {
		t.Fatal(err)
	}
	cs := res.Containers[0]
	// At slot 1 the demand spikes to 4, but the (lagged) allocation was
	// sized for demand 1: utilization shoots above Ulow.
	if cs.Utilization[1] <= q.ULow {
		t.Errorf("lagged manager should be caught out by the spike: U=%v", cs.Utilization[1])
	}
	// At slot 2 demand falls back to 1 while the allocation was sized
	// for 4: utilization drops below Ulow.
	if cs.Utilization[2] >= q.ULow {
		t.Errorf("slot after spike should be over-allocated: U=%v", cs.Utilization[2])
	}
}

func TestEndToEndComplianceAtCommittedTheta(t *testing.T) {
	// The contract in one test: translate a bursty demand trace, run it
	// through a manager that delivers CoS1 fully and exactly the
	// committed fraction of CoS2, and the achieved utilization must
	// satisfy the QoS requirement.
	q := caseStudyQoS()
	q.TDegr = 30 * time.Minute
	theta := 0.6
	samples := make([]float64, 2016)
	for i := range samples {
		samples[i] = 1 + 0.5*math.Sin(float64(i)/30)
	}
	for i := 400; i < 420; i++ {
		samples[i] = 5 // 100-minute burst
	}
	samples[1000] = 6 // isolated spike
	c := container(t, "a", samples, q, theta)

	// Capacity delivering full CoS1 and exactly theta of CoS2: emulate
	// by scaling the CoS2 trace (the manager grants proportionally, so
	// a single-container run at reduced capacity gives the same worst
	// case per slot only when capacity binds every slot; instead check
	// against the partition's own worst-case utilization).
	comp := complianceFromWorstCase(t, c, q)
	if !comp.Satisfied {
		t.Errorf("worst-case compliance not satisfied: %+v", comp)
	}
	if comp.MaxUtilization > q.UDegr*(1+1e-9) {
		t.Errorf("MaxUtilization = %v beyond Udegr", comp.MaxUtilization)
	}
}

// complianceFromWorstCase builds ContainerStats from the partition's
// analytic worst case (CoS2 delivered at exactly θ) and checks them.
func complianceFromWorstCase(t *testing.T, c Container, q qos.AppQoS) Compliance {
	t.Helper()
	cs := ContainerStats{AppID: c.Demand.AppID}
	for _, d := range c.Demand.Samples {
		cs.Utilization = append(cs.Utilization, c.Partition.WorstCaseUtilization(d))
	}
	comp, err := CheckCompliance(cs, q, c.Demand.Interval)
	if err != nil {
		t.Fatal(err)
	}
	return comp
}

func TestCheckCompliance(t *testing.T) {
	q := caseStudyQoS()
	q.TDegr = 10 * time.Minute // R = 2 slots at 5-minute intervals
	cs := ContainerStats{
		AppID:       "a",
		Utilization: []float64{0.5, 0.6, 0.7, 0.7, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5},
	}
	comp, err := CheckCompliance(cs, q, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if comp.DegradedFraction != 0.2 {
		t.Errorf("DegradedFraction = %v, want 0.2", comp.DegradedFraction)
	}
	if comp.LongestDegraded != 10*time.Minute {
		t.Errorf("LongestDegraded = %v, want 10m", comp.LongestDegraded)
	}
	if comp.MaxUtilization != 0.7 {
		t.Errorf("MaxUtilization = %v, want 0.7", comp.MaxUtilization)
	}
	// 20% degraded exceeds the 3% budget.
	if comp.Satisfied {
		t.Error("Satisfied = true, want false (Mdegr budget exceeded)")
	}

	// A violation beyond Udegr is never satisfied.
	cs.Utilization = []float64{0.95}
	comp, err = CheckCompliance(cs, q, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if comp.ViolatedFraction != 1 || comp.Satisfied {
		t.Errorf("violation not detected: %+v", comp)
	}

	// A clean trace satisfies.
	cs.Utilization = []float64{0.5, 0.55, 0.6}
	comp, err = CheckCompliance(cs, q, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !comp.Satisfied || comp.AcceptableFraction != 1 {
		t.Errorf("clean trace not satisfied: %+v", comp)
	}

	// Run-length violation with an otherwise small degraded fraction.
	long := make([]float64, 100)
	for i := range long {
		long[i] = 0.5
	}
	long[10], long[11], long[12] = 0.7, 0.7, 0.7 // 3 slots > R=2
	comp, err = CheckCompliance(ContainerStats{Utilization: long}, q, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if comp.Satisfied {
		t.Error("Tdegr run violation not detected")
	}

	if _, err := CheckCompliance(ContainerStats{}, q, 5*time.Minute); err == nil {
		t.Error("empty stats accepted")
	}
	bad := q
	bad.ULow = 0
	if _, err := CheckCompliance(cs, bad, 5*time.Minute); err == nil {
		t.Error("invalid QoS accepted")
	}
}

func TestCheckComplianceDailyBudget(t *testing.T) {
	// One-hour slots: 24 per day. Three scattered degraded epochs on
	// day one, none on day two.
	util := make([]float64, 48)
	for i := range util {
		util[i] = 0.5
	}
	util[2], util[10], util[20] = 0.7, 0.7, 0.7

	q := qos.AppQoS{ULow: 0.5, UHigh: 0.66, UDegr: 0.9, MPercent: 90}
	comp, err := CheckCompliance(ContainerStats{Utilization: util}, q, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if comp.MaxDegradedInDay != 3 {
		t.Errorf("MaxDegradedInDay = %d, want 3", comp.MaxDegradedInDay)
	}
	if !comp.Satisfied {
		t.Error("without a per-day budget the trace should satisfy")
	}

	q.MaxDegradedPerDay = 2
	comp, err = CheckCompliance(ContainerStats{Utilization: util}, q, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if comp.Satisfied {
		t.Error("3 degraded epochs should violate a per-day budget of 2")
	}

	q.MaxDegradedPerDay = 3
	comp, err = CheckCompliance(ContainerStats{Utilization: util}, q, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if !comp.Satisfied {
		t.Error("budget of 3 should be satisfied exactly")
	}
}
