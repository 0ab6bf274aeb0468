package sim

import (
	"math"
	"math/rand"
	"testing"

	"ropus/internal/qos"
	"ropus/internal/telemetry"
)

// decidedCase draws a group of 1–4 workloads over 1–4 whole weeks and a
// ragged tail (weeks scaled on their own, with CoS2 bursts that open
// backlogs), a deadline of 0–8 slots and 1–32 lanes in random order:
// lanes below the CoS1 peak, at it, between the peaks, at and above the
// total peak, and duplicates of earlier lanes.
func decidedCase(r *rand.Rand) (*Aggregate, Config, []float64) {
	t := 2 + r.Intn(5)
	week := 7 * t
	n := (1+r.Intn(4))*week + r.Intn(week)
	group := make([]Workload, 1+r.Intn(4))
	for a := range group {
		w := Workload{AppID: string(rune('a' + a)), CoS1: make([]float64, n), CoS2: make([]float64, n)}
		scale := make([]float64, n/week+1)
		for i := range scale {
			scale[i] = 0.3 + 1.4*r.Float64()
		}
		for i := 0; i < n; i++ {
			s := scale[i/week]
			w.CoS1[i] = s * r.Float64()
			if r.Intn(4) == 0 {
				w.CoS2[i] = s * 4 * r.Float64()
			} else {
				w.CoS2[i] = s * r.Float64()
			}
		}
		group[a] = w
	}
	agg, err := NewAggregate(group)
	if err != nil {
		panic(err)
	}
	cfg := Config{SlotsPerDay: t, DeadlineSlots: r.Intn(9), Commitment: qos.PoolCommitment{Theta: 1}}
	lo, hi := agg.CoS1Peak(), agg.TotalPeak()
	caps := make([]float64, 1+r.Intn(32))
	for j := range caps {
		switch c := r.Intn(10); {
		case c == 0 && j > 0:
			caps[j] = caps[r.Intn(j)]
		case c == 1:
			caps[j] = lo * r.Float64()
		case c == 2:
			caps[j] = lo
		case c == 3:
			caps[j] = hi * (1 + 0.2*r.Float64())
		default:
			caps[j] = lo + (hi-lo)*r.Float64()
		}
	}
	return agg, cfg, caps
}

// decidedTheta picks the commitment θ for a case whose exact lanes are
// want. Most draws are uniform in (0, 1] or exactly 1. The rest put a
// lane that otherwise fits on Fits' θ edge: its Theta a hair inside the
// 1e-12 slack, or exactly θ − 1e-12, where it still fits.
func decidedTheta(r *rand.Rand, want []Result) float64 {
	var edge []float64
	for _, res := range want {
		if res.CoS1OK && res.DeadlineOK && res.Theta > 0 && res.Theta < 1 {
			edge = append(edge, res.Theta)
		}
	}
	switch c := r.Intn(4); {
	case c == 0 && len(edge) > 0:
		return edge[r.Intn(len(edge))] + 0.5e-12
	case c == 1 && len(edge) > 0:
		th := edge[r.Intn(len(edge))]
		x := th + 1e-12
		for step := 0; step < 64 && x-1e-12 != th; step++ {
			if x-1e-12 < th {
				x = math.Nextafter(x, 2)
			} else {
				x = math.Nextafter(x, 0)
			}
		}
		if x-1e-12 == th && x <= 1 {
			return x
		}
	}
	if r.Intn(5) == 0 {
		return 1
	}
	return 1 - r.Float64()
}

// TestDecidedLanesProperty holds the search's decided-lane mode to the
// exact kernel: on every lane it gives ReplayBatch's Fits verdict, and
// on every lane that fits, ReplayBatch's Result bit for bit. It also
// counts each lane it stopped in sim_lanes_stopped_total, which is then
// exactly the number of lanes that do not fit. One replayer serves
// both modes in turn, so neither can lean on scratch the other left.
func TestDecidedLanesProperty(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	br := NewBatchReplayer()
	var fit, cos1, theta, deadline, edge int
	for trial := 0; trial < 3000; trial++ {
		agg, cfg, caps := decidedCase(r)
		want := make([]Result, len(caps))
		if err := agg.ReplayBatch(br, cfg, caps, want); err != nil {
			t.Fatal(err)
		}
		cfg.Commitment.Theta = decidedTheta(r, want)
		th := cfg.Commitment.Theta
		reg := telemetry.NewRegistry()
		dcfg := cfg
		dcfg.Hooks = telemetry.New(reg, nil)
		got := make([]Result, len(caps))
		if err := agg.replayBatch(br, dcfg, caps, got, true); err != nil {
			t.Fatal(err)
		}
		misfits := int64(0)
		for j, w := range want {
			if got[j].Fits(th) != w.Fits(th) {
				t.Fatalf("trial %d lane %d (capacity %v, θ %v, deadline %d): decided Fits %v, exact %v\n decided=%+v\n exact  =%+v",
					trial, j, caps[j], th, cfg.DeadlineSlots, got[j].Fits(th), w.Fits(th), got[j], w)
			}
			switch {
			case w.Fits(th):
				fit++
				if got[j] != w {
					t.Fatalf("trial %d lane %d (capacity %v): fitting lane\n decided=%+v\n exact  =%+v", trial, j, caps[j], got[j], w)
				}
				if w.Theta < th {
					edge++
				}
				continue
			case !w.CoS1OK:
				cos1++
			case w.Theta < th-1e-12:
				theta++
			default:
				deadline++
			}
			misfits++
		}
		if stopped := reg.Counter("sim_lanes_stopped_total").Value(); stopped != misfits {
			t.Fatalf("trial %d: sim_lanes_stopped_total = %d, want the %d lanes that do not fit", trial, stopped, misfits)
		}
	}
	t.Logf("lanes: %d fit (%d on the θ edge), %d fail CoS1, %d fail θ, %d fail only a deadline", fit, edge, cos1, theta, deadline)
	for name, c := range map[string]int{"fit": fit, "θ edge": edge, "CoS1": cos1, "θ": theta, "deadline": deadline} {
		if c < 100 {
			t.Errorf("only %d %s lanes; the generator no longer covers that outcome", c, name)
		}
	}
}
