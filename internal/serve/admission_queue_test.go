package serve

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// never is the blocked test of a pool with a free slot for every class.
func never(string) bool { return false }

// drainTenants pops q to exhaustion with nothing blocked and returns the
// tenant of each ID served; IDs are "tenant#n".
func drainTenants(q *admissionQueue) []string {
	var order []string
	for id := q.next(never); id != ""; id = q.next(never) {
		tenant, _, _ := strings.Cut(id, "#")
		order = append(order, tenant)
	}
	return order
}

// TestAdmissionQueueDeficitRoundRobinHonorsWeights: with weights gold=2
// bronze=1 the dequeue order interleaves two gold jobs per bronze job —
// weighted fair service, not FIFO and not starvation.
func TestAdmissionQueueDeficitRoundRobinHonorsWeights(t *testing.T) {
	q := newAdmissionQueue(64, map[string]int{"gold": 2, "bronze": 1}, nil, nil)
	for i := 1; i <= 3; i++ {
		q.push("gold", fmt.Sprintf("gold#%d", i))
	}
	for i := 4; i <= 6; i++ {
		q.push("bronze", fmt.Sprintf("bronze#%d", i))
	}
	got := strings.Join(drainTenants(q), ",")
	want := "gold,gold,bronze,gold,bronze,bronze"
	if got != want {
		t.Errorf("DRR order %s, want %s", got, want)
	}
}

// TestAdmissionQueueUniformWeightsRoundRobin: with no weights
// configured, tenants alternate one-for-one.
func TestAdmissionQueueUniformWeightsRoundRobin(t *testing.T) {
	q := newAdmissionQueue(64, nil, nil, nil)
	for i := 1; i <= 2; i++ {
		q.push("a", fmt.Sprintf("a#%d", i))
		q.push("b", fmt.Sprintf("b#%d", 10+i))
	}
	got := strings.Join(drainTenants(q), ",")
	if got != "a,b,a,b" {
		t.Errorf("uniform order %s, want a,b,a,b", got)
	}
}

// TestAdmissionQueueRemoveKeepsTurn: a tenant that leaves the ring
// behind the one whose turn it is (its last job adopted from a peer)
// does not shift the turn onto the tenant after.
func TestAdmissionQueueRemoveKeepsTurn(t *testing.T) {
	q := newAdmissionQueue(64, nil, nil, nil)
	for i := 1; i <= 2; i++ {
		for _, tenant := range []string{"a", "b", "c"} {
			q.push(tenant, fmt.Sprintf("%s#%d", tenant, i))
		}
	}
	if id := q.next(never); id != "a#1" {
		t.Fatalf("first pick %s, want a#1", id)
	}
	if !q.remove("a#2") || q.remove("a#2") {
		t.Fatal("remove(a#2) must succeed exactly once")
	}
	if got := strings.Join(drainTenants(q), ","); got != "b,c,b,c" {
		t.Errorf("order after a left %s, want b,c,b,c", got)
	}
}

// admissionModel is the reference the property test holds the queue to:
// per-tenant FIFOs of IDs and the policy's configuration.
type admissionModel struct {
	depth   int
	weights map[string]int
	quotas  map[string]int
	values  map[string]float64
	fifos   map[string][]string
}

func (md *admissionModel) weight(t string) int {
	if w := md.weights[t]; w > 0 {
		return w
	}
	return 1
}

func (md *admissionModel) total() int {
	n := 0
	for _, f := range md.fifos {
		n += len(f)
	}
	return n
}

// wantShed is the shed decision in closed form: the quota first, then
// max(1, depth·w(t)/max w) — or depth·v(t)/max v when values are set,
// both maxima taken with the default of 1 — against the whole queue.
func (md *admissionModel) wantShed(t string) (shed bool, reason string, queued, limit int) {
	if quota := md.quotas[t]; quota > 0 && len(md.fifos[t]) >= quota {
		return true, "tenant quota exhausted", len(md.fifos[t]), quota
	}
	var threshold int
	share := "weighted share"
	if len(md.values) > 0 {
		v, maxV := 1.0, 1.0
		if md.values[t] > 0 {
			v = md.values[t]
		}
		for _, x := range md.values {
			maxV = max(maxV, x)
		}
		threshold, share = int(float64(md.depth)*v/maxV), "value share"
	} else {
		maxW := 1
		for _, w := range md.weights {
			maxW = max(maxW, w)
		}
		threshold = md.depth * md.weight(t) / maxW
	}
	threshold = max(threshold, 1)
	if md.total() < threshold {
		return false, "", 0, 0
	}
	reason = "queue full"
	if threshold < md.depth {
		reason = "queue past tenant's " + share
	}
	return true, reason, md.total(), threshold
}

// checkQueueMatchesModel asserts the queue's structure: its FIFOs are
// the model's, its length is their sum, the ring holds exactly the
// tenants with something queued, and unspent credit stays below weight.
func checkQueueMatchesModel(t *testing.T, seed int64, step int, q *admissionQueue, md *admissionModel) {
	t.Helper()
	if q.len() != md.total() {
		t.Fatalf("seed %d step %d: len %d, model holds %d", seed, step, q.len(), md.total())
	}
	sum := 0
	for tenant, fifo := range q.fifos {
		sum += len(fifo)
		if !slices.Equal(fifo, md.fifos[tenant]) {
			t.Fatalf("seed %d step %d: tenant %s FIFO %v, model %v", seed, step, tenant, fifo, md.fifos[tenant])
		}
	}
	if sum != q.len() {
		t.Fatalf("seed %d step %d: FIFOs sum to %d, len %d", seed, step, sum, q.len())
	}
	ringed := map[string]bool{}
	for _, tenant := range q.ring {
		if ringed[tenant] || len(q.fifos[tenant]) == 0 {
			t.Fatalf("seed %d step %d: ring %v against FIFOs %v", seed, step, q.ring, q.fifos)
		}
		ringed[tenant] = true
	}
	if len(ringed) != len(q.fifos) {
		t.Fatalf("seed %d step %d: ring %v misses a tenant of %v", seed, step, q.ring, q.fifos)
	}
	for tenant, c := range q.credit {
		if !ringed[tenant] || c < 0 || c >= md.weight(tenant) {
			t.Fatalf("seed %d step %d: tenant %s credit %d (weight %d, ringed %v)", seed, step, tenant, c, md.weight(tenant), ringed[tenant])
		}
	}
}

// TestAdmissionQueueProperty runs 1 000 seeded random sequences of push,
// remove, next under random blocked sets, and shed decisions, with
// random weights, quotas, values and depth, against admissionModel. It
// checks that every pushed ID comes out exactly once (served by next or
// dropped by remove) and the length is the sum of the FIFOs; that next
// serves the first unblocked ID of a tenant's FIFO, so with nothing
// blocked a tenant drains in FIFO order; that a next call changes no
// credit but the served tenant's, so a blocked skip spends nothing; that
// every shed decision equals the closed form; and that while every
// tenant has work queued each DRR round serves exactly weight(t) jobs of
// each tenant, in ring order.
func TestAdmissionQueueProperty(t *testing.T) {
	const sequences = 1000
	for seed := int64(1); seed <= sequences; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tenants := []string{"t0", "t1", "t2", "t3"}[:1+rng.Intn(4)]
		md := &admissionModel{
			depth:   1 + rng.Intn(12),
			weights: map[string]int{},
			quotas:  map[string]int{},
			fifos:   map[string][]string{},
		}
		for _, tenant := range tenants {
			if rng.Intn(4) > 0 {
				md.weights[tenant] = rng.Intn(5) // 0 falls back to 1
			}
			if rng.Intn(3) == 0 {
				md.quotas[tenant] = 1 + rng.Intn(5)
			}
		}
		if rng.Intn(2) == 0 {
			md.values = map[string]float64{}
			for _, tenant := range tenants {
				if rng.Intn(4) > 0 {
					md.values[tenant] = rng.Float64() * 1000 // values below 1 exercise the default max
				}
			}
		}
		q := newAdmissionQueue(md.depth, md.weights, md.quotas, md.values)

		pushed, outs := 0, map[string]int{}
		push := func(tenant string) {
			id := fmt.Sprintf("%s#%d", tenant, pushed)
			pushed++
			q.push(tenant, id)
			md.fifos[tenant] = append(md.fifos[tenant], id)
		}
		drop := func(tenant, id string) {
			md.fifos[tenant] = slices.DeleteFunc(md.fifos[tenant], func(x string) bool { return x == id })
			if len(md.fifos[tenant]) == 0 {
				delete(md.fifos, tenant)
			}
			outs[id]++
		}

		for step := 0; step < 200; step++ {
			switch op := rng.Intn(20); {
			case op < 9: // a submission: shed decision, then (maybe) push
				tenant := tenants[rng.Intn(len(tenants))]
				got := q.shed(tenant)
				shed, reason, queued, limit := md.wantShed(tenant)
				if (got != nil) != shed {
					t.Fatalf("seed %d step %d: shed(%s) = %v, closed form says %v", seed, step, tenant, got, shed)
				}
				if got != nil && (got.Tenant != tenant || got.Reason != reason || got.Queued != queued || got.QueueDepth != limit) {
					t.Fatalf("seed %d step %d: shed(%s) = %+v, want %q %d/%d", seed, step, tenant, *got, reason, queued, limit)
				}
				// Peers' jobs are adopted without a shed decision, so a
				// shed tenant may still grow the queue.
				if got == nil || rng.Intn(3) == 0 {
					push(tenant)
				}
			case op < 12: // remove a queued ID, or one that is not queued
				tenant := tenants[rng.Intn(len(tenants))]
				id := fmt.Sprintf("%s#%d", tenant, rng.Intn(pushed+1))
				if fifo := md.fifos[tenant]; len(fifo) > 0 && rng.Intn(2) == 0 {
					id = fifo[rng.Intn(len(fifo))]
				}
				was := slices.Contains(md.fifos[tenant], id)
				if q.queued(id) != was || q.remove(id) != was || q.queued(id) {
					t.Fatalf("seed %d step %d: remove(%s) disagrees with the model (queued %v)", seed, step, id, was)
				}
				if was {
					drop(tenant, id)
				}
			default: // next under a random blocked set
				p := []float64{0, 0.3, 0.7, 1}[rng.Intn(4)]
				blockedSet := map[string]bool{}
				for _, tenant := range tenants {
					for _, id := range md.fifos[tenant] {
						blockedSet[id] = rng.Float64() < p
					}
				}
				blocked := func(id string) bool { return blockedSet[id] }
				before := maps.Clone(q.credit)
				id := q.next(blocked)
				served := ""
				if id == "" {
					for queuedID, b := range blockedSet {
						if !b {
							t.Fatalf("seed %d step %d: next found nothing but %s is dispatchable", seed, step, queuedID)
						}
					}
				} else {
					served, _, _ = strings.Cut(id, "#")
					first := slices.IndexFunc(md.fifos[served], func(x string) bool { return !blockedSet[x] })
					if first < 0 || md.fifos[served][first] != id {
						t.Fatalf("seed %d step %d: next served %s, first unblocked of %v", seed, step, id, md.fifos[served])
					}
					drop(served, id)
				}
				for tenant, c := range before {
					if tenant != served && q.credit[tenant] != c {
						t.Fatalf("seed %d step %d: tenant %s credit %d -> %d while %q was served", seed, step, tenant, c, q.credit[tenant], served)
					}
				}
			}
			checkQueueMatchesModel(t, seed, step, q, md)
		}

		// Drain with nothing blocked: the rest comes out tenant by tenant
		// in FIFO order, and every pushed ID has left exactly once.
		for id := q.next(never); id != ""; id = q.next(never) {
			tenant, _, _ := strings.Cut(id, "#")
			if md.fifos[tenant][0] != id {
				t.Fatalf("seed %d: drain served %s ahead of %s", seed, id, md.fifos[tenant][0])
			}
			drop(tenant, id)
		}
		if len(outs) != pushed {
			t.Fatalf("seed %d: %d IDs pushed, %d came out", seed, pushed, len(outs))
		}
		for id, n := range outs {
			if n != 1 {
				t.Fatalf("seed %d: %s came out %d times", seed, id, n)
			}
		}
		checkQueueMatchesModel(t, seed, -1, q, md)

		// Rounds: every tenant gets rounds·weight jobs or more, pushed in a
		// random interleaving, so the ring is first-push order; the first
		// rounds·Σweight picks are then whole rounds from wherever the
		// ring stands.
		rounds := 1 + rng.Intn(3)
		var bag, ring []string
		for _, tenant := range tenants {
			for n := rounds*md.weight(tenant) + rng.Intn(3); n > 0; n-- {
				bag = append(bag, tenant)
			}
		}
		rng.Shuffle(len(bag), func(i, j int) { bag[i], bag[j] = bag[j], bag[i] })
		for _, tenant := range bag {
			if !slices.Contains(ring, tenant) {
				ring = append(ring, tenant)
			}
			push(tenant)
		}
		got := drainTenants(q)
		start := slices.Index(ring, got[0])
		var want []string
		for range rounds {
			for k := range ring {
				tenant := ring[(start+k)%len(ring)]
				for range md.weight(tenant) {
					want = append(want, tenant)
				}
			}
		}
		if !slices.Equal(got[:len(want)], want) {
			t.Fatalf("seed %d: weights %v, ring %v: served %v, want rounds %v", seed, md.weights, ring, got[:len(want)], want)
		}
	}
}
