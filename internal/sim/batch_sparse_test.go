package sim

import (
	"math"
	"math/rand"
	"testing"

	"ropus/internal/faultinject"
	"ropus/internal/qos"
)

// sparseCase is one input of the sparse-vs-dense comparison.
type sparseCase struct {
	agg     *Aggregate
	cfg     Config
	caps    []float64
	corrupt bool
}

// checkSparseParity replays the case through the production (sparse)
// kernel and the dense reference and requires every Result field bit
// for bit, the same error if any, and the same workFrac.
func checkSparseParity(t testing.TB, br *BatchReplayer, dr *denseReplayer, c sparseCase) {
	t.Helper()
	mk := func() Config {
		cfg := c.cfg
		if c.corrupt {
			cfg.Inject = faultinject.MustScript(1, faultinject.Rule{Point: "sim.replay", Corrupt: true})
		}
		return cfg
	}
	got := make([]Result, len(c.caps))
	want := make([]Result, len(c.caps))
	gotErr := c.agg.ReplayBatch(br, mk(), c.caps, got)
	wantErr := c.agg.replayBatchDense(dr, mk(), c.caps, want)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("sparse err = %v, dense err = %v", gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	for j := range want {
		g, w := got[j], want[j]
		// == covers the flags and the two peaks (copied from the aggregate);
		// the computed floats are compared by their bits.
		if g != w ||
			math.Float64bits(g.Theta) != math.Float64bits(w.Theta) ||
			math.Float64bits(g.UnservedTotal) != math.Float64bits(w.UnservedTotal) {
			t.Fatalf("lane %d cap=%v (n=%d spd=%d deadline=%d lanes=%d):\n dense =%+v\n sparse=%+v",
				j, c.caps[j], c.agg.Slots(), c.cfg.SlotsPerDay, c.cfg.DeadlineSlots, len(c.caps), w, g)
		}
	}
	if math.Float64bits(br.workFrac) != math.Float64bits(dr.workFrac) {
		t.Fatalf("workFrac: sparse %v, dense %v (n=%d spd=%d deadline=%d lanes=%d)",
			br.workFrac, dr.workFrac, c.agg.Slots(), c.cfg.SlotsPerDay, c.cfg.DeadlineSlots, len(c.caps))
	}
}

// randSparseCase draws a trace with a diurnal base, a chosen share of
// spike slots and a chosen share of zero-request slots, a ragged last
// day, and a lane ladder with duplicates and capacities outside
// [CoS1Peak, TotalPeak].
func randSparseCase(r *rand.Rand) sparseCase {
	spd := []int{4, 24, 288}[r.Intn(3)]
	days := 1 + r.Intn(30)
	if spd == 288 {
		days = 1 + r.Intn(16) // keep the 5-minute traces affordable
	}
	n := days*spd - r.Intn(spd) // ragged last day; under a week when days < 7
	if n < 1 {
		n = 1
	}
	spike := r.Float64() * 0.3
	zero := r.Float64() * 0.3
	cos1 := make([]float64, n)
	cos2 := make([]float64, n)
	for i := range cos1 {
		base := 1 + 0.8*math.Sin(2*math.Pi*float64(i%spd)/float64(spd))
		cos1[i] = base * 0.4 * r.Float64()
		switch u := r.Float64(); {
		case u < zero:
		case u < zero+spike:
			cos2[i] = base * (2 + 4*r.Float64())
		default:
			cos2[i] = base * (0.7 + 0.3*r.Float64())
		}
	}
	a := batchAgg(cos1, cos2)
	k := 1 + r.Intn(31)
	caps := make([]float64, k)
	for j := range caps {
		switch u := r.Float64(); {
		case j > 0 && u < 0.15:
			caps[j] = caps[r.Intn(j)] // duplicate lane
		case u < 0.25:
			caps[j] = a.cos1Peak * r.Float64() // below CoS1Peak
		case u < 0.35:
			caps[j] = a.totalPeak * (1 + r.Float64()) // above TotalPeak
		default:
			caps[j] = a.cos1Peak + (a.totalPeak-a.cos1Peak)*r.Float64()
		}
	}
	return sparseCase{
		agg: a,
		cfg: Config{
			SlotsPerDay:   spd,
			DeadlineSlots: r.Intn(9),
			Commitment:    qos.PoolCommitment{Theta: 0.5 + r.Float64()*0.45},
		},
		caps:    caps,
		corrupt: r.Intn(20) == 0,
	}
}

// TestBatchSparseParityProperty pins the sparse kernel to the dense
// reference over random traces: every Result bit and workFrac, on warm
// scratch that the previous (differently shaped) case left behind.
func TestBatchSparseParityProperty(t *testing.T) {
	trials := 1500
	if testing.Short() {
		trials = 200
	}
	r := rand.New(rand.NewSource(24))
	br, dr := NewBatchReplayer(), new(denseReplayer)
	for trial := 0; trial < trials; trial++ {
		checkSparseParity(t, br, dr, randSparseCase(r))
	}
}

// TestBatchSparseParityEdges covers the shapes the random draw reaches
// rarely: every slot hot on every lane, no slot hot, a backlog alive at
// the trace end, a one-slot trace, and a trace one slot past a week
// boundary (the folded partial week).
func TestBatchSparseParityEdges(t *testing.T) {
	flat := func(n int, c1, c2 float64) *Aggregate {
		cos1, cos2 := make([]float64, n), make([]float64, n)
		for i := range cos1 {
			cos1[i], cos2[i] = c1, c2
		}
		return batchAgg(cos1, cos2)
	}
	tailSpike := flat(60, 1, 1)
	tailSpike.cos2[58] = 50
	tailSpike.totalPeak = 51
	cases := []sparseCase{
		{agg: flat(57, 1, 4), caps: []float64{0, 1, 2, 3, 4.5}},
		{agg: flat(57, 1, 4), caps: []float64{5, 6, 100}},
		{agg: tailSpike, caps: []float64{2, 2.5, 10}},
		{agg: flat(1, 1, 4), caps: []float64{0, 3, 5}},
		{agg: flat(7*4+1, 1, 4), caps: []float64{2, 4.999, 5}},
		{agg: flat(2*7*4+3, 0, 0), caps: []float64{0, 1}},
	}
	br, dr := NewBatchReplayer(), new(denseReplayer)
	for _, deadline := range []int{0, 1, 3, 100} {
		for _, corrupt := range []bool{false, true} {
			for _, c := range cases {
				c.cfg = Config{SlotsPerDay: 4, DeadlineSlots: deadline, Commitment: qos.PoolCommitment{Theta: 0.6}}
				c.corrupt = corrupt
				checkSparseParity(t, br, dr, c)
			}
		}
	}
}

// FuzzReplayBatchParity runs the same comparison on fuzzer-shaped
// traces: the bytes are the per-slot requests (CoS1 in the low nibble,
// CoS2 in the high one, so zero requests and exact ties are common),
// the scalars pick the calendar, the deadline and the lane ladder.
func FuzzReplayBatchParity(f *testing.F) {
	f.Add([]byte{0x10, 0x21, 0xf0, 0x00, 0x33, 0x10, 0x10, 0xe2, 0x11}, uint8(4), uint8(2), uint8(5), uint16(7), false)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, uint8(1), uint8(0), uint8(3), uint16(1), false)
	f.Add([]byte{0x00}, uint8(24), uint8(8), uint8(1), uint16(0), true)
	f.Add(make([]byte, 64), uint8(3), uint8(1), uint8(31), uint16(999), false)
	f.Fuzz(func(t *testing.T, trace []byte, spd, deadline, lanes uint8, capSeed uint16, corrupt bool) {
		if len(trace) == 0 || len(trace) > 4096 || spd == 0 {
			return
		}
		cos1 := make([]float64, len(trace))
		cos2 := make([]float64, len(trace))
		for i, b := range trace {
			cos1[i] = float64(b&0x0f) / 4
			cos2[i] = float64(b>>4) / 2
		}
		a := batchAgg(cos1, cos2)
		k := 1 + int(lanes)%31
		r := rand.New(rand.NewSource(int64(capSeed)))
		caps := make([]float64, k)
		for j := range caps {
			// Quarter steps up to past the largest possible peak: ties
			// with the trace values and duplicate lanes are frequent.
			caps[j] = float64(r.Intn(50)) / 4
		}
		checkSparseParity(t, NewBatchReplayer(), new(denseReplayer), sparseCase{
			agg: a,
			cfg: Config{
				SlotsPerDay:   int(spd),
				DeadlineSlots: int(deadline) % 9,
				Commitment:    qos.PoolCommitment{Theta: 0.6},
			},
			caps:    caps,
			corrupt: corrupt,
		})
	})
}
