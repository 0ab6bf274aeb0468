package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"ropus/internal/qos"
	"ropus/internal/telemetry"
)

// Benchmarks for the batched multi-capacity replay and the K-ary
// capacity search built on it. The trace is diurnal-plus-spikes — the
// shape the fleet generator produces — because batched replay's
// economics depend on it: on bursty traces most slots leave every lane
// backlog-free, so a marginal lane costs ~0.1x of a full scalar replay
// and a 15-lane pass replaces 15 trace traversals for ~2x the cost of
// one. (On an adversarial uniform-random trace where half the lanes
// carry permanent backlog, a marginal lane costs about as much as a
// scalar pass and batching only wins on traversal count.)

// benchBurstyAgg builds a 4-week, 5-minute-slot trace with a diurnal
// base load and 2% demand spikes.
func benchBurstyAgg() *Aggregate { return benchDiurnalAgg(28, 288) }

// benchDiurnalAgg is that shape at a chosen calendar: days of spd slots.
func benchDiurnalAgg(days, spd int) *Aggregate {
	r := rand.New(rand.NewSource(11))
	n := days * spd
	cos1 := make([]float64, n)
	cos2 := make([]float64, n)
	for i := 0; i < n; i++ {
		day := float64(i%spd) / float64(spd)
		base := 1.5 + 1.2*math.Sin(2*math.Pi*day)
		if base < 0.2 {
			base = 0.2
		}
		c2 := base * (0.7 + 0.6*r.Float64())
		if r.Float64() < 0.02 {
			c2 *= 3.5
		}
		cos1[i] = 0.4 * c2
		cos2[i] = c2
	}
	return batchAgg(cos1, cos2)
}

func benchBatchConfig() Config {
	return Config{
		SlotsPerDay:   288,
		DeadlineSlots: 12,
		Commitment:    qos.PoolCommitment{Theta: 0.7},
	}
}

// BenchmarkReplayScalar is the baseline: one replay of the bursty trace
// at a mid-range capacity through the scalar reference loop.
func BenchmarkReplayScalar(b *testing.B) {
	a := benchBurstyAgg()
	cfg := benchBatchConfig()
	cfg.Capacity = (a.cos1Peak + a.totalPeak) / 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.replayScalar(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplay is the same replay through Replay, one lane of the
// pooled kernel.
func BenchmarkReplay(b *testing.B) {
	a := benchBurstyAgg()
	cfg := benchBatchConfig()
	cfg.Capacity = (a.cos1Peak + a.totalPeak) / 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Replay(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchReplayBatch times one batched pass with k lanes spread across
// the searchable capacity range and reports the per-lane cost.
func benchReplayBatch(b *testing.B, k int) {
	a := benchBurstyAgg()
	cfg := benchBatchConfig()
	caps := make([]float64, k)
	for j := range caps {
		caps[j] = a.cos1Peak + (a.totalPeak-a.cos1Peak)*float64(j+1)/float64(k+1)
	}
	out := make([]Result, k)
	br := NewBatchReplayer()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.ReplayBatch(br, cfg, caps, out); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k), "ns/lane")
}

func BenchmarkReplayBatch15(b *testing.B) { benchReplayBatch(b, 15) }
func BenchmarkReplayBatch31(b *testing.B) { benchReplayBatch(b, 31) }

// BenchmarkSearchBisect is the scalar reference search: one trace
// traversal per probe.
func BenchmarkSearchBisect(b *testing.B) {
	a := benchBurstyAgg()
	cfg := benchBatchConfig()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.searchBisect(ctx, cfg, a.totalPeak*2, 0.01); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchKary is the batched search over the identical probe
// sequence; it also reports the trace traversals per search so the
// pass reduction lands in the benchmark output next to the ns/op.
func BenchmarkSearchKary(b *testing.B) {
	a := benchBurstyAgg()
	reg := telemetry.NewRegistry()
	cfg := benchBatchConfig()
	cfg.Hooks = telemetry.New(reg, nil)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.searchKary(ctx, cfg, a.totalPeak*2, 0.01); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	passes := reg.Counter("sim_search_passes_total").Value()
	saved := reg.Counter("sim_search_passes_saved_total").Value()
	b.ReportMetric(float64(passes)/float64(b.N), "passes/search")
	b.ReportMetric(float64(passes+saved)/float64(b.N), "probes/search")
}

// hotLadder returns 7 ascending lanes whose lowest leaves about the
// given share of slots in deficit: the (1−hot) quantile of the total
// demand up to TotalPeak. hot = 1 is the worst case for a sparse
// kernel — every lane far below the smallest demand, so every slot is
// hot and every lane carries backlog throughout.
func hotLadder(a *Aggregate, hot float64) []float64 {
	total := make([]float64, a.Slots())
	for i := range total {
		total[i] = a.cos1[i] + a.cos2[i]
	}
	sort.Float64s(total)
	lo, hi := total[int(float64(len(total)-1)*(1-hot))], a.totalPeak
	if hot >= 1 {
		lo, hi = 0.3*total[0], 0.6*total[0]
	}
	caps := make([]float64, 7)
	for j := range caps {
		caps[j] = lo + (hi-lo)*float64(j)/float64(len(caps))
	}
	return caps
}

// BenchmarkReplayBatchHot puts the sparse kernel's worst case on the
// record next to the dense reference: one 7-lane pass at hot fractions
// of about 1%, 10%, 50% and 100%, on the paper's 8064-slot trace and on
// a 168-slot one (a week of hourly slots, where the fixed per-pass
// costs weigh most). docs/PERFORMANCE.md quotes the ratios.
func BenchmarkReplayBatchHot(b *testing.B) {
	for _, shape := range []struct{ days, spd int }{{28, 288}, {7, 24}} {
		a := benchDiurnalAgg(shape.days, shape.spd)
		cfg := benchBatchConfig()
		cfg.SlotsPerDay = shape.spd
		for _, hot := range []float64{0.01, 0.10, 0.50, 1} {
			caps := hotLadder(a, hot)
			out := make([]Result, len(caps))
			name := fmt.Sprintf("slots=%d/hot=%d%%", a.Slots(), int(hot*100))
			report := func(b *testing.B, workFrac float64) {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(caps)*a.Slots()), "ns/lane-slot")
				b.ReportMetric(workFrac, "workfrac")
			}
			b.Run(name+"/sparse", func(b *testing.B) {
				br := NewBatchReplayer()
				for i := 0; i < b.N; i++ {
					if err := a.ReplayBatch(br, cfg, caps, out); err != nil {
						b.Fatal(err)
					}
				}
				report(b, br.workFrac)
			})
			b.Run(name+"/dense", func(b *testing.B) {
				dr := new(denseReplayer)
				for i := 0; i < b.N; i++ {
					if err := a.replayBatchDense(dr, cfg, caps, out); err != nil {
						b.Fatal(err)
					}
				}
				report(b, dr.workFrac)
			})
		}
	}
}

// BenchmarkAggregateRebuild sums groups of 1, 3, 4 and 8 apps into a
// warm aggregate, each app a rotation of the 8064-slot diurnal trace,
// and reports the cost per slot of each app summed: the sweep-count
// saving of the three-wide fold shows as a lower ns/slot-app at 3 and
// 8 apps than at 1 and 4.
func BenchmarkAggregateRebuild(b *testing.B) {
	base := benchBurstyAgg()
	n := base.Slots()
	pool := make([]Workload, 8)
	for j := range pool {
		shift := j * 97 % n
		pool[j] = Workload{
			AppID: fmt.Sprintf("app-%d", j),
			CoS1:  append(append([]float64(nil), base.cos1[shift:]...), base.cos1[:shift]...),
			CoS2:  append(append([]float64(nil), base.cos2[shift:]...), base.cos2[:shift]...),
		}
	}
	for _, k := range []int{1, 3, 4, 8} {
		b.Run(fmt.Sprintf("apps=%d", k), func(b *testing.B) {
			var agg Aggregate
			for i := 0; i < b.N; i++ {
				if err := agg.Rebuild(pool[:k]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k*n), "ns/slot-app")
		})
	}
}
