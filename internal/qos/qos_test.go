package qos

import (
	"strings"
	"testing"
	"time"
)

// caseStudyQoS is the paper's case-study requirement: Ulow=0.5,
// Uhigh=0.66, Udegr=0.9, M=97%, Tdegr=30min.
func caseStudyQoS() AppQoS {
	return AppQoS{
		ULow:     0.5,
		UHigh:    0.66,
		UDegr:    0.9,
		MPercent: 97,
		TDegr:    30 * time.Minute,
	}
}

func TestAppQoSValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*AppQoS)
		wantErr bool
	}{
		{name: "case study values", mutate: func(q *AppQoS) {}},
		{name: "Ulow equals Uhigh ok", mutate: func(q *AppQoS) { q.ULow = q.UHigh }},
		{name: "MPercent 100 ok", mutate: func(q *AppQoS) { q.MPercent = 100 }},
		{name: "TDegr zero ok", mutate: func(q *AppQoS) { q.TDegr = 0 }},
		{name: "Udegr equals Uhigh ok", mutate: func(q *AppQoS) { q.UDegr = q.UHigh }},
		{name: "zero Ulow", mutate: func(q *AppQoS) { q.ULow = 0 }, wantErr: true},
		{name: "negative Ulow", mutate: func(q *AppQoS) { q.ULow = -0.1 }, wantErr: true},
		{name: "Ulow above Uhigh", mutate: func(q *AppQoS) { q.ULow = 0.7 }, wantErr: true},
		{name: "Uhigh at one", mutate: func(q *AppQoS) { q.UHigh = 1; q.UDegr = 1 }, wantErr: true},
		{name: "Udegr below Uhigh", mutate: func(q *AppQoS) { q.UDegr = 0.5 }, wantErr: true},
		{name: "Udegr at one", mutate: func(q *AppQoS) { q.UDegr = 1 }, wantErr: true},
		{name: "MPercent zero", mutate: func(q *AppQoS) { q.MPercent = 0 }, wantErr: true},
		{name: "MPercent above 100", mutate: func(q *AppQoS) { q.MPercent = 101 }, wantErr: true},
		{name: "negative TDegr", mutate: func(q *AppQoS) { q.TDegr = -time.Minute }, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			q := caseStudyQoS()
			tt.mutate(&q)
			err := q.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestMDegrPercent(t *testing.T) {
	q := caseStudyQoS()
	if got := q.MDegrPercent(); got != 3 {
		t.Errorf("MDegrPercent = %v, want 3", got)
	}
	q.MPercent = 100
	if got := q.MDegrPercent(); got != 0 {
		t.Errorf("MDegrPercent = %v, want 0", got)
	}
}

func TestTDegrSlots(t *testing.T) {
	tests := []struct {
		name        string
		tdegr       time.Duration
		interval    time.Duration
		wantR       int
		wantLimited bool
	}{
		{name: "30min at 5min", tdegr: 30 * time.Minute, interval: 5 * time.Minute, wantR: 6, wantLimited: true},
		{name: "2h at 5min", tdegr: 2 * time.Hour, interval: 5 * time.Minute, wantR: 24, wantLimited: true},
		{name: "unlimited", tdegr: 0, interval: 5 * time.Minute},
		{name: "bad interval", tdegr: 30 * time.Minute, interval: 0},
		{name: "tdegr shorter than interval", tdegr: time.Minute, interval: 5 * time.Minute, wantR: 0, wantLimited: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			q := caseStudyQoS()
			q.TDegr = tt.tdegr
			r, limited := q.TDegrSlots(tt.interval)
			if r != tt.wantR || limited != tt.wantLimited {
				t.Errorf("TDegrSlots = (%d,%v), want (%d,%v)", r, limited, tt.wantR, tt.wantLimited)
			}
		})
	}
}

func TestRequirementValidate(t *testing.T) {
	good := Requirement{Normal: caseStudyQoS(), Failure: caseStudyQoS()}
	if err := good.Validate(); err != nil {
		t.Errorf("valid requirement rejected: %v", err)
	}

	bad := good
	bad.Normal.ULow = 0
	err := bad.Validate()
	if err == nil {
		t.Fatal("invalid normal mode accepted")
	}
	if !strings.Contains(err.Error(), "normal mode") {
		t.Errorf("error %q should mention the failing mode", err)
	}

	bad = good
	bad.Failure.UDegr = 2
	err = bad.Validate()
	if err == nil {
		t.Fatal("invalid failure mode accepted")
	}
	if !strings.Contains(err.Error(), "failure mode") {
		t.Errorf("error %q should mention the failing mode", err)
	}
}

func TestPoolCommitmentValidate(t *testing.T) {
	tests := []struct {
		name    string
		c       PoolCommitment
		wantErr bool
	}{
		{name: "case study", c: PoolCommitment{Theta: 0.95, Deadline: time.Hour}},
		{name: "theta one", c: PoolCommitment{Theta: 1}},
		{name: "theta zero", c: PoolCommitment{}, wantErr: true},
		{name: "theta above one", c: PoolCommitment{Theta: 1.01}, wantErr: true},
		{name: "negative deadline", c: PoolCommitment{Theta: 0.5, Deadline: -time.Second}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.c.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestDeadlineSlots(t *testing.T) {
	c := PoolCommitment{Theta: 0.95, Deadline: time.Hour}
	if got := c.DeadlineSlots(5 * time.Minute); got != 12 {
		t.Errorf("DeadlineSlots = %d, want 12", got)
	}
	if got := c.DeadlineSlots(0); got != 0 {
		t.Errorf("DeadlineSlots(interval=0) = %d, want 0", got)
	}
	c.Deadline = 0
	if got := c.DeadlineSlots(5 * time.Minute); got != 0 {
		t.Errorf("DeadlineSlots(deadline=0) = %d, want 0", got)
	}
}

func TestAppQoSString(t *testing.T) {
	q := caseStudyQoS()
	got := q.String()
	for _, want := range []string{"0.50", "0.66", "Mdegr=3%", "Udegr=0.90", "Tdegr=30m0s"} {
		if !strings.Contains(got, want) {
			t.Errorf("String() = %q, missing %q", got, want)
		}
	}
	q.TDegr = 0
	if strings.Contains(q.String(), "Tdegr") {
		t.Error("unlimited Tdegr should not be printed")
	}
	q.MaxDegradedPerDay = 4
	if !strings.Contains(q.String(), "4 degraded epochs/day") {
		t.Errorf("String() = %q, missing epoch budget", q.String())
	}
}

func TestPoolCommitmentString(t *testing.T) {
	c := PoolCommitment{Theta: 0.6, Deadline: time.Hour}
	got := c.String()
	if !strings.Contains(got, "0.60") || !strings.Contains(got, "1h0m0s") {
		t.Errorf("String() = %q", got)
	}
}

func TestClassOfServiceString(t *testing.T) {
	if CoS1.String() != "CoS1" || CoS2.String() != "CoS2" {
		t.Errorf("String() = %q,%q", CoS1, CoS2)
	}
	if got := ClassOfService(9).String(); !strings.Contains(got, "9") {
		t.Errorf("unknown CoS String() = %q", got)
	}
}
