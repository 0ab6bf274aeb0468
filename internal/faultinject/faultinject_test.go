package faultinject

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"ropus/internal/resilience"
)

func TestChaosRuleValidate(t *testing.T) {
	tests := []struct {
		name    string
		rule    Rule
		wantErr bool
	}{
		{name: "valid", rule: Rule{Point: "p"}},
		{name: "no point", rule: Rule{}, wantErr: true},
		{name: "negative nth", rule: Rule{Point: "p", Nth: -1}, wantErr: true},
		{name: "prob above one", rule: Rule{Point: "p", Prob: 1.5}, wantErr: true},
		{name: "prob NaN", rule: Rule{Point: "p", Prob: math.NaN()}, wantErr: true},
		{name: "negative delay", rule: Rule{Point: "p", Delay: -time.Second}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.rule.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
	if _, err := NewScript(1, Rule{}); err == nil {
		t.Error("NewScript should reject an invalid rule")
	}
}

func TestChaosScriptErrorRule(t *testing.T) {
	s := MustScript(1, Rule{Point: "failure.scenario", Key: "srv-b"})
	if o := s.Hit("failure.scenario", "srv-a"); o.Err != nil {
		t.Errorf("key srv-a should not fire, got %v", o.Err)
	}
	o := s.Hit("failure.scenario", "srv-b")
	if !errors.Is(o.Err, ErrInjected) {
		t.Errorf("injected error should wrap ErrInjected, got %v", o.Err)
	}
	if o := s.Hit("other.point", "srv-b"); o.Err != nil {
		t.Errorf("other point should not fire, got %v", o.Err)
	}
	if got := s.Hits("failure.scenario"); got != 2 {
		t.Errorf("Hits = %d, want 2", got)
	}
	if got := s.Fired("failure.scenario"); got != 1 {
		t.Errorf("Fired = %d, want 1", got)
	}
}

func TestChaosScriptCustomErrDelayCorrupt(t *testing.T) {
	sentinel := errors.New("boom")
	s := MustScript(1,
		Rule{Point: "p", Err: sentinel},
		Rule{Point: "p", Delay: 5 * time.Millisecond},
		Rule{Point: "p", Corrupt: true},
	)
	o := s.Hit("p", "k")
	if !errors.Is(o.Err, sentinel) {
		t.Errorf("Err = %v, want sentinel", o.Err)
	}
	if o.Delay != 5*time.Millisecond {
		t.Errorf("Delay = %v, want 5ms", o.Delay)
	}
	if !o.Corrupt {
		t.Error("Corrupt should be set")
	}
}

func TestChaosScriptNthFiresOnce(t *testing.T) {
	s := MustScript(1, Rule{Point: "p", Nth: 3})
	for i := 1; i <= 5; i++ {
		o := s.Hit("p", "k")
		if (o.Err != nil) != (i == 3) {
			t.Errorf("hit %d: err = %v", i, o.Err)
		}
	}
}

func TestChaosScriptProbDeterministic(t *testing.T) {
	fire := func(seed int64) []bool {
		s := MustScript(seed, Rule{Point: "p", Prob: 0.5})
		out := make([]bool, 20)
		for i := range out {
			out[i] = s.Hit("p", "k").Err != nil
		}
		return out
	}
	a, b := fire(7), fire(7)
	some, all := false, true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at hit %d", i)
		}
		some = some || a[i]
		all = all && a[i]
	}
	if !some || all {
		t.Errorf("Prob 0.5 over 20 hits should fire sometimes but not always (got %v)", a)
	}
}

func TestChaosNilInjectorsAreSafe(t *testing.T) {
	var s *Script
	if o := s.Hit("p", "k"); o.Err != nil || o.Delay != 0 || o.Corrupt {
		t.Errorf("nil script injected %+v", o)
	}
	f := Func(func(point, key string) Outcome {
		return Outcome{Err: fmt.Errorf("%s[%s]", point, key)}
	})
	if o := f.Hit("p", "k"); o.Err == nil {
		t.Error("Func adapter did not pass through")
	}
}

func TestChaosScriptConcurrent(t *testing.T) {
	s := MustScript(1, Rule{Point: "p", Prob: 0.5})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.Hit("p", "k")
			}
		}()
	}
	wg.Wait()
	if got := s.Hits("p"); got != 800 {
		t.Errorf("Hits = %d, want 800", got)
	}
}

func TestChaosCorruptSlots(t *testing.T) {
	in := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	out := CorruptSlots(in, 0.25, 3)
	if len(out) != len(in) {
		t.Fatalf("length changed: %d", len(out))
	}
	nans := 0
	for i, v := range in {
		if v != in[i] && !math.IsNaN(out[i]) {
			t.Errorf("slot %d changed to non-NaN %v", i, out[i])
		}
		if math.IsNaN(out[i]) {
			nans++
		}
	}
	if nans != 2 {
		t.Errorf("corrupted %d slots, want 2", nans)
	}
	again := CorruptSlots(in, 0.25, 3)
	for i := range out {
		if math.IsNaN(out[i]) != math.IsNaN(again[i]) {
			t.Fatalf("same seed corrupted different slots")
		}
	}
	for _, v := range in {
		if math.IsNaN(v) {
			t.Fatal("input was mutated")
		}
	}
	if tiny := CorruptSlots([]float64{1}, 0.01, 1); !math.IsNaN(tiny[0]) {
		t.Error("at least one slot should be corrupted")
	}
}

func TestChaosChurn(t *testing.T) {
	in := []string{"a", "b", "c", "d"}
	out := Churn(in, 2, 5)
	if len(out) != 2 {
		t.Fatalf("Churn kept %d items, want 2", len(out))
	}
	again := Churn(in, 2, 5)
	for i := range out {
		if out[i] != again[i] {
			t.Fatal("same seed churned differently")
		}
	}
	if got := Churn(in, 10, 5); len(got) != 1 {
		t.Errorf("Churn should never drop below one item, kept %d", len(got))
	}
	if got := Churn(in, 0, 5); len(got) != len(in) {
		t.Errorf("drop 0 should keep everything, kept %d", len(got))
	}
}

func TestChaosTransientClassification(t *testing.T) {
	s := MustScript(1,
		Rule{Point: "p", Key: "flaky", Transient: true},
		Rule{Point: "p", Key: "dead"},
		Rule{Point: "p", Key: "custom", Err: errors.New("wrapped blip"), Transient: true},
	)

	flaky := s.Hit("p", "flaky")
	if flaky.Err == nil || !flaky.Transient {
		t.Fatalf("transient rule outcome = %+v", flaky)
	}
	if !resilience.Transient(flaky.Err) {
		t.Error("transient injected error must classify via resilience.Transient")
	}
	if !errors.Is(flaky.Err, ErrInjected) {
		t.Error("transient wrapping must preserve the ErrInjected chain")
	}
	if !errors.Is(flaky.Err, resilience.ErrTransient) {
		t.Error("transient injected error must match resilience.ErrTransient")
	}

	dead := s.Hit("p", "dead")
	if dead.Err == nil || dead.Transient {
		t.Fatalf("permanent rule outcome = %+v", dead)
	}
	if resilience.Transient(dead.Err) {
		t.Error("the permanent default must not classify as transient")
	}

	custom := s.Hit("p", "custom")
	if !resilience.Transient(custom.Err) || custom.Err.Error() != "wrapped blip" {
		t.Errorf("custom transient error = %v (transient %v)", custom.Err, custom.Transient)
	}
}

// TestAttemptDeadlineOutcomeWait: Wait sleeps the scripted delay and
// returns the scripted error, unless the context ends first, when it
// returns the context's error at once.
func TestAttemptDeadlineOutcomeWait(t *testing.T) {
	boom := errors.New("boom")
	if err := (Outcome{}).Wait(context.Background()); err != nil {
		t.Errorf("zero outcome: Wait = %v, want nil", err)
	}
	if err := (Outcome{Delay: time.Millisecond, Err: boom}).Wait(context.Background()); err != boom {
		t.Errorf("uncut wait: Wait = %v, want the scripted error", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := (Outcome{Delay: time.Minute, Err: boom}).Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("cut wait: Wait = %v, want the context's deadline error", err)
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Errorf("cut wait slept %v", d)
	}
	cancelled, stop := context.WithCancel(context.Background())
	stop()
	if err := (Outcome{Delay: time.Minute}).Wait(cancelled); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled wait: Wait = %v, want context.Canceled", err)
	}
}
