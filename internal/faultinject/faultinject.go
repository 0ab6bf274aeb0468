// Package faultinject provides deterministic, scripted fault injection
// for exercising the planning pipeline's graceful-degradation paths.
//
// A Script is a seeded list of Rules. Instrumented components (the
// failure planner, the simulator's required-capacity search, the
// workload-manager replay) call Hit at named injection points; the
// script decides — deterministically for a given seed and hit sequence —
// whether to inject an error, an artificial delay, or a request to
// corrupt the data flowing through the point. Components impose the
// delay and error through Outcome.Wait under the context of the work
// the point stands for, so an injected slow stage is cut by an attempt
// deadline or a cancellation the same way real work is. Production code
// paths pay nothing: components only consult an Injector when one is
// configured, and the zero configuration is nil.
//
// Injection points currently consumed by the repository:
//
//	failure.scenario        key = failed server ID, multi-failure Key or scenario name
//	planner.step            key = weeks ahead ("0" for the baseline)
//	sim.required_capacity   key = Problem server ID (via Config.InjectKey)
//	sim.replay              key = Config.InjectKey
//	wlmgr.container         key = application ID
//	lease.acquire           key = lease name; Err fails the acquisition
//	lease.expire            key = lease name; any fired outcome makes a
//	                        live peer lease count as expired, forcing a
//	                        deterministic (contested) steal
//	lease.steal             key = lease name; Delay widens the window
//	                        between expiry detection and the steal rename,
//	                        staging multi-instance steal races
//	lease.renew             key = lease name; Err makes the holder observe
//	                        a lost lease on its next heartbeat
//	serve.result.write      key = job ID; Err fails the result write (the
//	                        job table pins the result), Delay slows it
//
// The package is dependency-free (stdlib plus the repo's resilience
// classification) and safe for concurrent use.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"ropus/internal/resilience"
)

// ErrInjected is the base error of every scripted fault, so tests and
// degradation paths can match injected failures with errors.Is.
var ErrInjected = errors.New("faultinject: injected fault")

// Outcome is what a Hit decided: any combination of an error to
// surface, a delay to impose, and a request to corrupt the data at the
// injection point. The zero Outcome means "proceed normally".
type Outcome struct {
	// Err is the scripted error, nil when no error fault fired. A
	// transient fault's Err is wrapped with resilience.MarkTransient, so
	// resilience.Transient(Err) and errors.Is(Err, resilience.ErrTransient)
	// both classify it.
	Err error
	// Delay is an artificial latency the component should impose
	// (modelling a slow stage) through Wait; zero when none fired.
	Delay time.Duration
	// Corrupt asks the component to corrupt the data flowing through
	// the point (e.g. a NaN trace slot) and exercise its detection path.
	Corrupt bool
	// Transient classifies the injected fault: true models a blip a
	// retry could absorb, false (the default — existing scripts keep
	// their behaviour) a permanent failure that retrying cannot fix.
	Transient bool
}

// Wait imposes the outcome at the injection point: it sleeps Delay and
// returns Err, or returns ctx's error as soon as ctx ends, so a scripted
// slow stage is cut by a deadline or cancellation exactly as the work it
// stands for would be. A component that must not be cut passes a
// context that never ends. Corrupt is left to the caller.
func (o Outcome) Wait(ctx context.Context) error {
	if o.Delay > 0 {
		t := time.NewTimer(o.Delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return o.Err
}

// Injector decides the fate of each instrumented operation. A nil
// Injector (the production default) injects nothing.
type Injector interface {
	// Hit reports the scripted outcome for one occurrence of the named
	// injection point; key identifies the occurrence (a server ID, an
	// application ID, ...).
	Hit(point, key string) Outcome
}

// Func adapts a plain function to the Injector interface, handy for
// one-off test injectors (e.g. cancelling a context on the nth hit).
type Func func(point, key string) Outcome

// Hit implements Injector.
func (f Func) Hit(point, key string) Outcome { return f(point, key) }

// Rule scripts faults for one injection point. A rule fires when the
// point matches, the key matches (empty Key matches every key), the
// occurrence count matches Nth (0 = every occurrence), and the seeded
// coin matches Prob (0 = always).
type Rule struct {
	// Point is the injection point the rule applies to (required).
	Point string
	// Key restricts the rule to one occurrence key; empty matches all.
	Key string
	// Nth fires the rule only on the nth matching hit (1-based);
	// 0 fires on every matching hit.
	Nth int
	// Prob fires the rule with this probability per matching hit, drawn
	// from the script's seeded generator; 0 (or >= 1) means always.
	Prob float64
	// Err is the error to inject; when nil but the rule is an error
	// fault (neither Delay nor Corrupt set), a wrapped ErrInjected
	// naming the point and key is injected instead.
	Err error
	// Delay is an artificial latency to inject.
	Delay time.Duration
	// Corrupt requests data corruption at the point.
	Corrupt bool
	// Transient marks the injected error as transient (retryable under
	// a resilience.Policy). The zero value keeps the historical
	// behaviour: injected faults are permanent and never retried.
	Transient bool
}

// Validate checks the rule.
func (r Rule) Validate() error {
	if r.Point == "" {
		return errors.New("faultinject: rule needs a Point")
	}
	if r.Nth < 0 {
		return fmt.Errorf("faultinject: rule %q: Nth %d < 0", r.Point, r.Nth)
	}
	if r.Prob < 0 || r.Prob > 1 || math.IsNaN(r.Prob) {
		return fmt.Errorf("faultinject: rule %q: Prob %v outside [0,1]", r.Point, r.Prob)
	}
	if r.Delay < 0 {
		return fmt.Errorf("faultinject: rule %q: negative Delay %v", r.Point, r.Delay)
	}
	return nil
}

// Script is a deterministic, seeded Injector driven by a rule list. It
// is safe for concurrent use; determinism across runs holds as long as
// the sequence of Hit calls is itself deterministic (the repository's
// consumers hit their points in loop order).
type Script struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rules []Rule
	// ruleHits counts matching hits per rule (for Nth).
	ruleHits []int
	// hits counts every Hit per point, fired those that injected
	// something.
	hits  map[string]int
	fired map[string]int
}

// NewScript builds a Script from validated rules. Invalid rules are
// reported immediately so a typo cannot silently disable a chaos test.
func NewScript(seed int64, rules ...Rule) (*Script, error) {
	for i, r := range rules {
		if err := r.Validate(); err != nil {
			return nil, fmt.Errorf("faultinject: rule %d: %w", i, err)
		}
	}
	return &Script{
		rng:      rand.New(rand.NewSource(seed)),
		rules:    append([]Rule(nil), rules...),
		ruleHits: make([]int, len(rules)),
		hits:     make(map[string]int),
		fired:    make(map[string]int),
	}, nil
}

// MustScript is NewScript for rule lists known to be valid (tests).
func MustScript(seed int64, rules ...Rule) *Script {
	s, err := NewScript(seed, rules...)
	if err != nil {
		panic(err)
	}
	return s
}

// Hit implements Injector. A nil *Script injects nothing.
func (s *Script) Hit(point, key string) Outcome {
	if s == nil {
		return Outcome{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hits[point]++
	var out Outcome
	for i := range s.rules {
		r := &s.rules[i]
		if r.Point != point || (r.Key != "" && r.Key != key) {
			continue
		}
		s.ruleHits[i]++
		if r.Nth > 0 && s.ruleHits[i] != r.Nth {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 && s.rng.Float64() >= r.Prob {
			continue
		}
		if r.Delay > 0 && out.Delay < r.Delay {
			out.Delay = r.Delay
		}
		if r.Corrupt {
			out.Corrupt = true
		}
		var injected error
		if r.Err != nil {
			injected = r.Err
		} else if r.Delay == 0 && !r.Corrupt && out.Err == nil {
			injected = fmt.Errorf("%w at %s[%s]", ErrInjected, point, key)
		}
		if injected != nil {
			if r.Transient {
				injected = resilience.MarkTransient(injected)
			}
			out.Err = injected
			out.Transient = r.Transient
		}
	}
	if out.Err != nil || out.Delay > 0 || out.Corrupt {
		s.fired[point]++
	}
	return out
}

// Hits returns how many times the point was consulted.
func (s *Script) Hits(point string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits[point]
}

// Fired returns how many hits at the point injected something.
func (s *Script) Fired(point string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fired[point]
}

// CorruptSlots returns a copy of samples with roughly frac of its slots
// (at least one) replaced by NaN, chosen deterministically from seed.
// Tests use it to model corrupted monitoring data reaching the pipeline.
func CorruptSlots(samples []float64, frac float64, seed int64) []float64 {
	out := append([]float64(nil), samples...)
	if len(out) == 0 {
		return out
	}
	n := int(float64(len(out)) * frac)
	if n < 1 {
		n = 1
	}
	if n > len(out) {
		n = len(out)
	}
	rng := rand.New(rand.NewSource(seed))
	for _, i := range rng.Perm(len(out))[:n] {
		out[i] = math.NaN()
	}
	return out
}

// Churn returns a copy of items with drop elements removed at
// deterministic seeded positions — simulated server-list churn for
// tests that shrink a pool mid-exercise. It never drops below one item.
func Churn[T any](items []T, drop int, seed int64) []T {
	if drop <= 0 || len(items) == 0 {
		return append([]T(nil), items...)
	}
	if drop >= len(items) {
		drop = len(items) - 1
	}
	rng := rand.New(rand.NewSource(seed))
	gone := make(map[int]bool, drop)
	for _, i := range rng.Perm(len(items))[:drop] {
		gone[i] = true
	}
	out := make([]T, 0, len(items)-drop)
	for i, it := range items {
		if !gone[i] {
			out = append(out, it)
		}
	}
	return out
}
