package telemetry

import (
	"context"
	"testing"
)

// nopBudgetNS is what one disabled telemetry call may cost: components
// emit unconditionally, so the disabled path has to stay an inlined nil
// check.
const nopBudgetNS = 5

// gateNop fails a nop-* benchmark whose own ns/op is over budget. Runs
// below 10⁶ iterations (the testing package's calibration passes) are
// too short to judge.
func gateNop(b *testing.B) {
	b.Helper()
	if nsPerOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N); b.N >= 1e6 && nsPerOp > nopBudgetNS {
		b.Errorf("disabled telemetry path costs %.2f ns/op, budget %d", nsPerOp, nopBudgetNS)
	}
}

// BenchmarkTelemetryOverhead proves the no-op hooks path is effectively
// free: each nop-* case fails itself over nopBudgetNS (CI runs them with
// -benchtime 100ms). The live variants document what enabling telemetry
// costs.
func BenchmarkTelemetryOverhead(b *testing.B) {
	b.Run("nop-counter-inc", func(b *testing.B) {
		c := OrNop(nil).Counter("x")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
		gateNop(b)
	})
	b.Run("nop-histogram-observe", func(b *testing.B) {
		h := OrNop(nil).Histogram("x", nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Observe(float64(i))
		}
		gateNop(b)
	})
	b.Run("nop-span", func(b *testing.B) {
		h := OrNop(nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.StartSpan("x").End()
		}
		gateNop(b)
	})
	b.Run("nop-span-ctx", func(b *testing.B) {
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, sp := StartSpanCtx(ctx, nil, "x")
			sp.End()
		}
		gateNop(b)
	})
	b.Run("live-counter-inc", func(b *testing.B) {
		c := New(NewRegistry(), nil).Counter("x")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("live-histogram-observe", func(b *testing.B) {
		h := New(NewRegistry(), nil).Histogram("x", DurationBuckets)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Observe(float64(i%100) / 1000)
		}
	})
	b.Run("live-span", func(b *testing.B) {
		tr := NewTracer()
		h := New(nil, tr)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.StartSpan("x").End()
		}
	})
	b.Run("live-counter-parallel", func(b *testing.B) {
		c := New(NewRegistry(), nil).Counter("x")
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				c.Inc()
			}
		})
	})
}

// TestDisabledPathsAllocateNothing is the part of the disabled-path
// budget a plain test can hold without reading a clock: the calls the
// nop-* benchmarks time allocate nothing.
func TestDisabledPathsAllocateNothing(t *testing.T) {
	h := OrNop(nil)
	c, hist := h.Counter("x"), h.Histogram("x", nil)
	ctx := context.Background()
	for name, op := range map[string]func(){
		"counter-inc":       func() { c.Inc() },
		"histogram-observe": func() { hist.Observe(1) },
		"span":              func() { h.StartSpan("x").End() },
		"span-ctx":          func() { _, sp := StartSpanCtx(ctx, nil, "x"); sp.End() },
	} {
		if allocs := testing.AllocsPerRun(100, op); allocs != 0 {
			t.Errorf("disabled %s allocates %v times per call, want 0", name, allocs)
		}
	}
}
