package serve

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// drainTenants pops q to exhaustion, returning each slot as soon as it
// is taken, and returns the tenant of each ID served; IDs are
// "tenant#n".
func drainTenants(q *admissionQueue) []string {
	var order []string
	for id := q.next(); id != ""; id = q.next() {
		q.done(id)
		tenant, _, _ := strings.Cut(id, "#")
		order = append(order, tenant)
	}
	return order
}

// TestAdmissionQueueDeficitRoundRobinHonorsWeights: with weights gold=2
// bronze=1 the dequeue order interleaves two gold jobs per bronze job —
// weighted fair service, not FIFO and not starvation.
func TestAdmissionQueueDeficitRoundRobinHonorsWeights(t *testing.T) {
	q := newAdmissionQueue(Config{QueueDepth: 64, MaxConcurrent: 1, TenantWeights: map[string]int{"gold": 2, "bronze": 1}})
	for i := 1; i <= 3; i++ {
		q.push("gold", fmt.Sprintf("gold#%d", i), KindTranslate)
	}
	for i := 4; i <= 6; i++ {
		q.push("bronze", fmt.Sprintf("bronze#%d", i), KindTranslate)
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
	q := newAdmissionQueue(Config{QueueDepth: 64, MaxConcurrent: 1})
	for i := 1; i <= 2; i++ {
		q.push("a", fmt.Sprintf("a#%d", i), KindTranslate)
		q.push("b", fmt.Sprintf("b#%d", 10+i), KindTranslate)
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
	q := newAdmissionQueue(Config{QueueDepth: 64, MaxConcurrent: 1})
	for i := 1; i <= 2; i++ {
		for _, tenant := range []string{"a", "b", "c"} {
			q.push(tenant, fmt.Sprintf("%s#%d", tenant, i), KindTranslate)
		}
	}
	if id := q.next(); id != "a#1" {
		t.Fatalf("first pick %s, want a#1", id)
	}
	q.done("a#1")
	if !q.remove("a#2") || q.remove("a#2") {
		t.Fatal("remove(a#2) must succeed exactly once")
	}
	if got := strings.Join(drainTenants(q), ","); got != "b,c,b,c" {
		t.Errorf("order after a left %s, want b,c,b,c", got)
	}
}

// admissionModel is the reference the property test holds the queue to:
// per-tenant FIFOs of IDs, the running set, and the policy's
// configuration.
type admissionModel struct {
	depth   int
	slots   int
	limits  map[string]int
	weights map[string]int
	quotas  map[string]int
	values  map[string]float64
	fifos   map[string][]string
	kinds   map[string]string // every pushed ID's kind
	running map[string]bool
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

// busy counts the running IDs of one kind.
func (md *admissionModel) busy(kind string) int {
	n := 0
	for id := range md.running {
		if md.kinds[id] == kind {
			n++
		}
	}
	return n
}

// dispatchable reports whether a queued ID may start now: a slot is
// free and its kind is below its class limit.
func (md *admissionModel) dispatchable(id string) bool {
	limit := md.limits[md.kinds[id]]
	return len(md.running) < md.slots && (limit <= 0 || md.busy(md.kinds[id]) < limit)
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
	if q.inFlight() != len(md.running) || q.inFlight() > md.slots {
		t.Fatalf("seed %d step %d: %d running (model %d), %d slots", seed, step, q.inFlight(), len(md.running), md.slots)
	}
	perKind := map[string]int{}
	for id, kind := range q.runs {
		perKind[kind]++
		if !md.running[id] || kind != md.kinds[id] {
			t.Fatalf("seed %d step %d: %s runs as %q, model running %v kind %q", seed, step, id, kind, md.running[id], md.kinds[id])
		}
	}
	for kind, n := range perKind {
		if limit := md.limits[kind]; (limit > 0 && n > limit) || q.busy[kind] != n {
			t.Fatalf("seed %d step %d: kind %s runs %d (busy %d), limit %d", seed, step, kind, n, q.busy[kind], limit)
		}
	}
	for tenant, c := range q.credit {
		if !ringed[tenant] || c < 0 || c >= md.weight(tenant) {
			t.Fatalf("seed %d step %d: tenant %s credit %d (weight %d, ringed %v)", seed, step, tenant, c, md.weight(tenant), ringed[tenant])
		}
	}
}

// TestAdmissionQueueProperty runs 1 000 seeded random sequences of push
// (with random kinds), remove, next, done and shed decisions, with
// random weights, quotas, values, depth, slot count (1–4) and class
// limits, against admissionModel. It checks that every pushed ID leaves
// the queue exactly once (served by next or dropped by remove) and the
// length is the sum of the FIFOs; that the running set never exceeds
// the slot count or any kind's limit; that next returns "" exactly when
// no queued ID is dispatchable, and otherwise serves the first
// dispatchable ID of a tenant's FIFO, so with nothing held back a tenant
// drains in FIFO order; that a next call changes no credit but the
// served tenant's, so a full pool or a class-blocked skip spends
// nothing; that every shed decision equals the closed form; and that
// while every tenant has work queued each DRR round serves exactly
// weight(t) jobs of each tenant, in ring order.
func TestAdmissionQueueProperty(t *testing.T) {
	const sequences = 1000
	kinds := []string{KindTranslate, KindPlace, KindFailover}
	for seed := int64(1); seed <= sequences; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tenants := []string{"t0", "t1", "t2", "t3"}[:1+rng.Intn(4)]
		md := &admissionModel{
			depth:   1 + rng.Intn(12),
			slots:   1 + rng.Intn(4),
			limits:  map[string]int{},
			weights: map[string]int{},
			quotas:  map[string]int{},
			fifos:   map[string][]string{},
			kinds:   map[string]string{},
			running: map[string]bool{},
		}
		for _, kind := range kinds {
			if rng.Intn(2) == 0 {
				md.limits[kind] = rng.Intn(4) // 0 is unlimited
			}
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
		q := newAdmissionQueue(Config{QueueDepth: md.depth, MaxConcurrent: md.slots, ClassLimits: md.limits,
			TenantWeights: md.weights, TenantQuotas: md.quotas, TenantValues: md.values})

		pushed, outs := 0, map[string]int{}
		push := func(tenant string) {
			id := fmt.Sprintf("%s#%d", tenant, pushed)
			pushed++
			md.kinds[id] = kinds[rng.Intn(len(kinds))]
			q.push(tenant, id, md.kinds[id])
			md.fifos[tenant] = append(md.fifos[tenant], id)
		}
		drop := func(tenant, id string) {
			md.fifos[tenant] = slices.DeleteFunc(md.fifos[tenant], func(x string) bool { return x == id })
			if len(md.fifos[tenant]) == 0 {
				delete(md.fifos, tenant)
			}
			outs[id]++
		}
		done := func(id string) {
			q.done(id)
			delete(md.running, id)
		}

		for step := 0; step < 200; step++ {
			switch op := rng.Intn(20); {
			case op < 8: // a submission: shed decision, then (maybe) push
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
			case op < 10: // remove a queued ID, or one that is not queued
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
			case op < 14: // an executor returns its slot, or a stray done
				id := fmt.Sprintf("t0#%d", rng.Intn(pushed+1))
				if len(md.running) > 0 && rng.Intn(4) > 0 {
					var ids []string
					for x := range md.running {
						ids = append(ids, x)
					}
					slices.Sort(ids) // map order would break the seed's replay
					id = ids[rng.Intn(len(ids))]
				}
				if q.running(id) != md.running[id] {
					t.Fatalf("seed %d step %d: running(%s) disagrees with the model", seed, step, id)
				}
				done(id)
			default: // a dispatch attempt
				before := maps.Clone(q.credit)
				id := q.next()
				served := ""
				if id == "" {
					for _, fifo := range md.fifos {
						if i := slices.IndexFunc(fifo, md.dispatchable); i >= 0 {
							t.Fatalf("seed %d step %d: next found nothing but %s is dispatchable", seed, step, fifo[i])
						}
					}
				} else {
					served, _, _ = strings.Cut(id, "#")
					first := slices.IndexFunc(md.fifos[served], md.dispatchable)
					if first < 0 || md.fifos[served][first] != id {
						t.Fatalf("seed %d step %d: next served %s, first dispatchable of %v", seed, step, id, md.fifos[served])
					}
					drop(served, id)
					md.running[id] = true
				}
				for tenant, c := range before {
					if tenant != served && q.credit[tenant] != c {
						t.Fatalf("seed %d step %d: tenant %s credit %d -> %d while %q was served", seed, step, tenant, c, q.credit[tenant], served)
					}
				}
			}
			checkQueueMatchesModel(t, seed, step, q, md)
		}

		// Drain with every slot returned as soon as it is taken: the rest
		// comes out tenant by tenant in FIFO order, and every pushed ID
		// has left exactly once.
		for id := range md.running {
			done(id)
		}
		for id := q.next(); id != ""; id = q.next() {
			done(id)
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
