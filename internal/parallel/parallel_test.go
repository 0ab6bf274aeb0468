package parallel

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
)

func TestForEachRunsAll(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8, 100} {
		var ran [50]int32
		done := ForEach(context.Background(), workers, len(ran), func(i int) {
			atomic.AddInt32(&ran[i], 1)
		})
		if done != len(ran) {
			t.Fatalf("workers=%d: dispatched %d, want %d", workers, done, len(ran))
		}
		for i, c := range ran {
			if c != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	if done := ForEach(context.Background(), 4, 0, func(int) { t.Error("fn called") }); done != 0 {
		t.Fatalf("dispatched %d for n=0", done)
	}
}

func TestForEachSerialOrder(t *testing.T) {
	var got []int
	ForEach(context.Background(), 1, 10, func(i int) { got = append(got, i) })
	for i, v := range got {
		if v != i {
			t.Fatalf("serial order broken at %d: %v", i, got)
		}
	}
}

func TestForEachCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		if done := ForEach(ctx, workers, 10, func(int) { t.Error("fn called") }); done != 0 {
			t.Fatalf("workers=%d: dispatched %d on a dead context", workers, done)
		}
	}
}

func TestForEachCancelMidwaySerial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran int
	done := ForEach(ctx, 1, 10, func(i int) {
		ran++
		if i == 3 {
			cancel()
		}
	})
	if done != 4 || ran != 4 {
		t.Fatalf("dispatched=%d ran=%d, want 4 (cancel lands after job 3)", done, ran)
	}
}

func TestForEachPanicResurfacesOnCaller(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Errorf("workers=%d: recovered %v, want \"boom\"", workers, r)
				}
			}()
			ForEach(context.Background(), workers, 20, func(i int) {
				if i == 2 {
					panic("boom")
				}
			})
			t.Errorf("workers=%d: ForEach returned instead of panicking", workers)
		}()
	}
}

func TestForEachCancelMidwayParallel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	seen := map[int]bool{}
	done := ForEach(ctx, 3, 100, func(i int) {
		if i > 5 {
			// Hold every later job until job 5 has cancelled, so the other
			// workers cannot drain the range while its worker is
			// descheduled.
			<-ctx.Done()
		}
		mu.Lock()
		seen[i] = true
		mu.Unlock()
		if i == 5 {
			cancel()
		}
	})
	if done == 100 {
		t.Fatal("cancellation should have stopped dispatch early")
	}
	// Every dispatched index was processed, and nothing beyond.
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != done {
		t.Fatalf("processed %d jobs but dispatched %d", len(seen), done)
	}
	for i := 0; i < done; i++ {
		if !seen[i] {
			t.Fatalf("dispatched prefix has a hole at %d", i)
		}
	}
}
