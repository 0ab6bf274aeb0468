package wlmgr

import (
	"context"
	"errors"
	"testing"

	"ropus/internal/faultinject"
)

func TestCancelReplayTruncated(t *testing.T) {
	q := caseStudyQoS()
	cs := []Container{
		container(t, "a", []float64{1, 2, 1, 2}, q, 0.6),
		container(t, "b", []float64{2, 1, 2, 1}, q, 0.6),
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Replay(ctx, 10, cs, Options{})
	if err != nil {
		t.Fatalf("cancelled replay should degrade, got %v", err)
	}
	if !res.Truncated {
		t.Error("cancelled replay should be flagged Truncated")
	}
	if res.SlotsReplayed != 0 {
		t.Errorf("pre-cancelled replay simulated %d slots, want 0", res.SlotsReplayed)
	}
	// A live context replays every slot and is not truncated.
	res, err = Replay(context.Background(), 10, cs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated || res.SlotsReplayed != 4 {
		t.Errorf("full replay: truncated=%v slots=%d, want false/4", res.Truncated, res.SlotsReplayed)
	}
}

func TestChaosContainerFaultSkipsContainer(t *testing.T) {
	q := caseStudyQoS()
	cs := []Container{
		container(t, "a", []float64{1, 2, 1, 2}, q, 0.6),
		container(t, "b", []float64{2, 1, 2, 1}, q, 0.6),
	}
	res, err := Replay(context.Background(), 10, cs, Options{
		Inject: faultinject.MustScript(1,
			faultinject.Rule{Point: "wlmgr.container", Key: "b"}),
	})
	if err != nil {
		t.Fatalf("a faulted container should not abort the replay: %v", err)
	}
	var a, b *ContainerStats
	for i := range res.Containers {
		switch res.Containers[i].AppID {
		case "a":
			a = &res.Containers[i]
		case "b":
			b = &res.Containers[i]
		}
	}
	if !errors.Is(b.Err, faultinject.ErrInjected) {
		t.Errorf("container b should record the injected fault, got %v", b.Err)
	}
	for s, v := range b.Received {
		if v != 0 {
			t.Errorf("faulted container received %v at slot %d, want 0", v, s)
		}
	}
	if a.Err != nil {
		t.Errorf("healthy container errored: %v", a.Err)
	}
	received := false
	for _, v := range a.Received {
		received = received || v > 0
	}
	if !received {
		t.Error("healthy container received nothing")
	}
}

func TestChaosContainerCorruptMarked(t *testing.T) {
	q := caseStudyQoS()
	cs := []Container{container(t, "a", []float64{1, 2}, q, 0.6)}
	res, err := Replay(context.Background(), 10, cs, Options{
		Inject: faultinject.MustScript(1,
			faultinject.Rule{Point: "wlmgr.container", Corrupt: true}),
	})
	if err != nil {
		t.Fatalf("corrupt container should not abort the replay: %v", err)
	}
	if res.Containers[0].Err == nil {
		t.Error("corrupted container should record an error")
	}
}
