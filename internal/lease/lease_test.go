package lease

import (
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"ropus/internal/faultinject"
)

func keeper(t *testing.T, instance string, ttl time.Duration) *Keeper {
	t.Helper()
	return &Keeper{Dir: t.TempDir(), Instance: instance, TTL: ttl}
}

func TestAcquireRenewRelease(t *testing.T) {
	k := keeper(t, "a", time.Second)
	l, err := k.Acquire("job-1")
	if err != nil {
		t.Fatal(err)
	}
	if l.Epoch() != 1 || l.Stolen() {
		t.Fatalf("fresh claim: epoch %d stolen %v", l.Epoch(), l.Stolen())
	}
	info, status := k.Read("job-1")
	if status != StatusLive || info.Instance != "a" || info.Epoch != 1 {
		t.Fatalf("after claim: %v %+v", status, info)
	}
	if err := l.Renew(); err != nil {
		t.Fatal(err)
	}
	if err := l.Release(); err != nil {
		t.Fatal(err)
	}
	if _, status := k.Read("job-1"); status != StatusReleased {
		t.Fatalf("after release: %v", status)
	}

	// Takeover of a released lease is immediate (no TTL wait), continues
	// the epoch sequence, and is not a steal.
	l2, err := k.Acquire("job-1")
	if err != nil {
		t.Fatal(err)
	}
	if l2.Epoch() != 2 || l2.Stolen() {
		t.Fatalf("takeover: epoch %d stolen %v", l2.Epoch(), l2.Stolen())
	}
	if err := l2.Discard(); err != nil {
		t.Fatal(err)
	}
	if _, status := k.Read("job-1"); status != StatusAbsent {
		t.Fatalf("after discard: %v", status)
	}
}

func TestSecondAcquirerIsHeld(t *testing.T) {
	a := keeper(t, "a", time.Minute)
	b := &Keeper{Dir: a.Dir, Instance: "b", TTL: time.Minute}
	if _, err := a.Acquire("job"); err != nil {
		t.Fatal(err)
	}
	_, err := b.Acquire("job")
	var held *HeldError
	if !errors.As(err, &held) || !errors.Is(err, ErrHeld) {
		t.Fatalf("got %v, want HeldError", err)
	}
	if held.Instance != "a" || held.Epoch != 1 {
		t.Fatalf("held by %q epoch %d, want a/1", held.Instance, held.Epoch)
	}
}

func TestStealExpiredLease(t *testing.T) {
	a := keeper(t, "a", 50*time.Millisecond)
	la, err := a.Acquire("job")
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a's crash: no renewals, no release.
	time.Sleep(80 * time.Millisecond)

	b := &Keeper{Dir: a.Dir, Instance: "b", TTL: 50 * time.Millisecond}
	lb, err := b.Acquire("job")
	if err != nil {
		t.Fatal(err)
	}
	if !lb.Stolen() || lb.Epoch() != 2 {
		t.Fatalf("steal: stolen=%v epoch=%d", lb.Stolen(), lb.Epoch())
	}
	// The zombie holder discovers the loss on its next renewal, and the
	// loss is permanent.
	if err := la.Renew(); !errors.Is(err, ErrLost) {
		t.Fatalf("zombie renew: got %v, want ErrLost", err)
	}
	if err := la.Renew(); !errors.Is(err, ErrLost) {
		t.Fatalf("second zombie renew: got %v, want ErrLost", err)
	}
	// A lost holder's release must not clobber the thief's lease.
	if err := la.Release(); err != nil {
		t.Fatal(err)
	}
	if info, status := b.Read("job"); status != StatusLive || info.Instance != "b" {
		t.Fatalf("thief's lease damaged by zombie release: %v %+v", status, info)
	}
}

// TestContestedStealExactlyOneWinner: many stealers race one expired
// lease; exactly one acquisition succeeds, the rest observe ErrHeld.
// Run under -race this also proves the keeper is data-race free.
func TestContestedStealExactlyOneWinner(t *testing.T) {
	a := keeper(t, "dead", 10*time.Millisecond)
	if _, err := a.Acquire("job"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)

	const n = 8
	var wg sync.WaitGroup
	wins := make(chan *Lease, n)
	var helds, others int
	var mu sync.Mutex
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := &Keeper{Dir: a.Dir, Instance: string(rune('A' + i)), TTL: time.Minute}
			l, err := k.Acquire("job")
			switch {
			case err == nil:
				wins <- l
			case errors.Is(err, ErrHeld):
				mu.Lock()
				helds++
				mu.Unlock()
			default:
				mu.Lock()
				others++
				mu.Unlock()
				t.Errorf("unexpected acquire error: %v", err)
			}
		}(i)
	}
	wg.Wait()
	close(wins)
	var winners []*Lease
	for l := range wins {
		winners = append(winners, l)
	}
	if len(winners) != 1 {
		t.Fatalf("%d winners, want exactly 1 (held=%d other=%d)", len(winners), helds, others)
	}
	if got := winners[0].Epoch(); got != 2 {
		t.Errorf("winner epoch %d, want 2", got)
	}
}

func TestTornLeaseTreatedAsLive(t *testing.T) {
	k := keeper(t, "a", time.Millisecond)
	path := k.path("job", 1)
	if err := os.WriteFile(path, []byte(`{"instance":"x","epo`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, status := k.Read("job"); status != StatusUnreadable {
		t.Fatalf("torn lease read as %v, want unreadable", status)
	}
	// Unreadable means "written moments ago": Acquire must refuse to
	// steal even though any parseable heartbeat would count as expired.
	if _, err := k.Acquire("job"); !errors.Is(err, ErrHeld) {
		t.Fatalf("torn lease acquire: got %v, want ErrHeld", err)
	}
	// Same for a checksum mismatch (a record tampered or half-replaced).
	info := Info{Instance: "x", Epoch: 1, HeartbeatNS: 1, TTLNS: 1, Sum: "not-the-sum"}
	data, _ := json.Marshal(info)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, status := k.Read("job"); status != StatusUnreadable {
		t.Fatalf("bad-sum lease read as %v, want unreadable", status)
	}
}

// TestInjectedExpiryForcesSteal: the lease.expire injection point makes
// a live lease stealable, so chaos tests can stage contested steals
// deterministically, and lease.renew makes the holder observe the loss.
func TestInjectedExpiryForcesSteal(t *testing.T) {
	a := keeper(t, "a", time.Minute)
	la, err := a.Acquire("job")
	if err != nil {
		t.Fatal(err)
	}
	thief := &Keeper{
		Dir: a.Dir, Instance: "b", TTL: time.Minute,
		Inject: faultinject.MustScript(1,
			faultinject.Rule{Point: "lease.expire", Key: "job"},
			faultinject.Rule{Point: "lease.steal", Key: "job", Delay: 5 * time.Millisecond},
		),
	}
	lb, err := thief.Acquire("job")
	if err != nil {
		t.Fatal(err)
	}
	if !lb.Stolen() || lb.Epoch() != 2 {
		t.Fatalf("forced steal: stolen=%v epoch=%d", lb.Stolen(), lb.Epoch())
	}
	if err := la.Renew(); !errors.Is(err, ErrLost) {
		t.Fatalf("victim renew: got %v, want ErrLost", err)
	}
}

// TestInjectedRenewFailure: a scripted lease.renew error marks the
// lease lost without any peer involvement (models a heartbeat that
// could not reach the shared directory).
func TestInjectedRenewFailure(t *testing.T) {
	k := keeper(t, "a", time.Minute)
	k.Inject = faultinject.MustScript(1, faultinject.Rule{Point: "lease.renew", Nth: 2})
	l, err := k.Acquire("job")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Renew(); err != nil {
		t.Fatalf("first renew should pass: %v", err)
	}
	if err := l.Renew(); !errors.Is(err, ErrLost) {
		t.Fatalf("second renew: got %v, want ErrLost", err)
	}
}

// TestAcquireLeavesNoTempDebris: after a claim and a steal the directory
// holds the lease's epoch chain and nothing else; Discard removes it all.
func TestAcquireLeavesNoTempDebris(t *testing.T) {
	k := keeper(t, "a/with slash", 10*time.Millisecond)
	if _, err := k.Acquire("job"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	b := &Keeper{Dir: k.Dir, Instance: "b", TTL: time.Minute}
	lb, err := b.Acquire("job")
	if err != nil {
		t.Fatal(err)
	}
	names := func() []string {
		entries, err := os.ReadDir(k.Dir)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, e := range entries {
			out = append(out, e.Name())
		}
		return out
	}
	if got := names(); !reflect.DeepEqual(got, []string{"job.e1.lease", "job.e2.lease"}) {
		t.Errorf("after a claim and a steal the directory holds %v, want the two epoch files", got)
	}
	if err := lb.Discard(); err != nil {
		t.Fatal(err)
	}
	if got := names(); len(got) != 0 {
		t.Errorf("Discard left %v behind", got)
	}
}

// staleThief stages the interleavings that broke the rename-based
// steal: a thief reads the dead holder's epoch 1 as expired and then
// stalls at the lease.steal point, where meanwhile runs before the
// thief goes on to claim with its stale read.
func staleThief(t *testing.T, meanwhile func(dir string)) (dir string, thiefErr error) {
	t.Helper()
	dead := keeper(t, "dead", time.Millisecond)
	if _, err := dead.Acquire("job"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	thief := &Keeper{Dir: dead.Dir, Instance: "thief", TTL: time.Minute,
		Inject: faultinject.Func(func(point, key string) faultinject.Outcome {
			if point == "lease.steal" {
				meanwhile(dead.Dir)
			}
			return faultinject.Outcome{}
		})}
	l, err := thief.Acquire("job")
	if err == nil {
		t.Errorf("thief acting on a stale read won epoch %d", l.Epoch())
	}
	return dead.Dir, err
}

// TestStaleReadThiefCannotUnseatLiveLease: a peer completes its steal
// while the thief holds a stale "expired" read; the thief must lose and
// the peer's fresh lease must survive it.
func TestStaleReadThiefCannotUnseatLiveLease(t *testing.T) {
	var peer *Lease
	dir, err := staleThief(t, func(dir string) {
		var perr error
		if peer, perr = (&Keeper{Dir: dir, Instance: "peer", TTL: time.Minute}).Acquire("job"); perr != nil {
			t.Fatal(perr)
		}
	})
	if !errors.Is(err, ErrHeld) {
		t.Fatalf("thief: got %v, want ErrHeld", err)
	}
	if !peer.Stolen() || peer.Epoch() != 2 {
		t.Fatalf("peer: stolen=%v epoch=%d, want a steal at epoch 2", peer.Stolen(), peer.Epoch())
	}
	if err := peer.Renew(); err != nil {
		t.Errorf("peer lost its live lease to the stale thief: %v", err)
	}
	info, status := (&Keeper{Dir: dir, Instance: "observer"}).Read("job")
	if status != StatusLive || info.Instance != "peer" || info.Epoch != 2 {
		t.Errorf("lease is %v %+v, want live, held by peer at epoch 2", status, info)
	}
}

// TestStaleReadThiefCannotRegressEpoch: ownership moves on twice (steal,
// release, takeover) while the thief stalls; its claim of the epoch it
// computed from the stale read must fail, and the sequence continues
// from the highest epoch ever issued.
func TestStaleReadThiefCannotRegressEpoch(t *testing.T) {
	dir, err := staleThief(t, func(dir string) {
		peer := &Keeper{Dir: dir, Instance: "peer", TTL: time.Minute}
		l2, err := peer.Acquire("job")
		if err != nil {
			t.Fatal(err)
		}
		if err := l2.Release(); err != nil {
			t.Fatal(err)
		}
		l3, err := peer.Acquire("job")
		if err != nil {
			t.Fatal(err)
		}
		if l2.Epoch() != 2 || l3.Epoch() != 3 {
			t.Fatalf("peer epochs %d, %d, want 2, 3", l2.Epoch(), l3.Epoch())
		}
		if err := l3.Release(); err != nil {
			t.Fatal(err)
		}
	})
	if !errors.Is(err, ErrHeld) {
		t.Fatalf("thief: got %v, want ErrHeld", err)
	}
	next, err := (&Keeper{Dir: dir, Instance: "next", TTL: time.Minute}).Acquire("job")
	if err != nil {
		t.Fatal(err)
	}
	if next.Epoch() != 4 {
		t.Errorf("next owner got epoch %d, want 4: epochs must not regress", next.Epoch())
	}
}
