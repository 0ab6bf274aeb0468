package serve

import "slices"

// admissionQueue is serve's admission policy in one value: a FIFO of job
// IDs per tenant, dequeued by deficit round robin (DRR) with quantum =
// weight, the shed decision in front of it (a tenant's hard quota, then
// its weighted or value-ordered share of the global depth), and the
// executor bound behind it (MaxConcurrent slots, ClassLimits per kind).
// It holds no lock, publishes no metrics and does no I/O: the Manager's
// table lock guards it, and the Manager reports what it decides.
type admissionQueue struct {
	depth     int
	slots     int
	limits    map[string]int
	weights   map[string]int
	quotas    map[string]int
	values    map[string]float64
	maxWeight int
	maxValue  float64

	// fifos holds each tenant's queued IDs, oldest first; a tenant with
	// nothing queued has no entry. ring lists exactly the tenants in
	// fifos, in visit order, and pos indexes the tenant being served.
	fifos map[string][]string
	ring  []string
	pos   int
	// credit is each ringed tenant's unspent DRR quantum.
	credit map[string]int
	// tenantOf and kindOf map every queued ID to its tenant and kind.
	tenantOf map[string]string
	kindOf   map[string]string
	// runs maps every running ID — handed out by next, not yet returned
	// by done — to its kind; busy counts them per kind.
	runs map[string]string
	busy map[string]int
}

// newAdmissionQueue reads the policy from cfg's QueueDepth, tenant
// weights, quotas and values, MaxConcurrent and ClassLimits.
func newAdmissionQueue(cfg Config) *admissionQueue {
	q := &admissionQueue{
		depth: cfg.QueueDepth, slots: cfg.MaxConcurrent, limits: cfg.ClassLimits,
		weights: cfg.TenantWeights, quotas: cfg.TenantQuotas, values: cfg.TenantValues,
		maxWeight: 1, maxValue: 1,
		fifos:    make(map[string][]string),
		credit:   make(map[string]int),
		tenantOf: make(map[string]string),
		kindOf:   make(map[string]string),
		runs:     make(map[string]string),
		busy:     make(map[string]int),
	}
	for _, w := range q.weights {
		q.maxWeight = max(q.maxWeight, w)
	}
	for _, v := range q.values {
		if v > q.maxValue {
			q.maxValue = v
		}
	}
	return q
}

// weight returns a tenant's DRR quantum (default 1).
func (q *admissionQueue) weight(tenant string) int {
	if w := q.weights[tenant]; w > 0 {
		return w
	}
	return 1
}

// value returns a tenant's business value (default 1).
func (q *admissionQueue) value(tenant string) float64 {
	if v := q.values[tenant]; v > 0 {
		return v
	}
	return 1
}

// shed decides a submission from tenant: nil admits it, otherwise the
// returned error (RetryAfter left for the caller to estimate) says why
// it is turned away. A tenant holding its quota of queued jobs sheds
// first. Past that, the tenant sheds once the whole queue holds its
// share of the depth — all of it for the heaviest tenant, proportionally
// less for lighter ones, never below 1 — so overload turns away the
// bottom of the order first without ever evicting an accepted job. The
// order is by value when values are configured, by weight otherwise.
func (q *admissionQueue) shed(tenant string) *OverloadedError {
	if quota := q.quotas[tenant]; quota > 0 && len(q.fifos[tenant]) >= quota {
		return &OverloadedError{Queued: len(q.fifos[tenant]), QueueDepth: quota,
			Tenant: tenant, Reason: "tenant quota exhausted"}
	}
	threshold, share := q.depth*q.weight(tenant)/q.maxWeight, "weighted share"
	if len(q.values) > 0 {
		threshold, share = int(float64(q.depth)*q.value(tenant)/q.maxValue), "value share"
	}
	threshold = max(threshold, 1)
	if q.len() < threshold {
		return nil
	}
	reason := "queue full"
	if threshold < q.depth {
		reason = "queue past tenant's " + share
	}
	return &OverloadedError{Queued: q.len(), QueueDepth: threshold, Tenant: tenant, Reason: reason}
}

// push appends id, a job of the given kind that is neither queued nor
// running, to tenant's FIFO; a tenant that had nothing queued joins the
// back of the ring.
func (q *admissionQueue) push(tenant, id, kind string) {
	if len(q.fifos[tenant]) == 0 {
		q.ring = append(q.ring, tenant)
	}
	q.fifos[tenant] = append(q.fifos[tenant], id)
	q.tenantOf[id] = tenant
	q.kindOf[id] = kind
}

// remove drops id from its tenant's FIFO and reports whether it was
// queued.
func (q *admissionQueue) remove(id string) bool {
	t, ok := q.tenantOf[id]
	if ok {
		q.take(t, slices.Index(q.fifos[t], id))
	}
	return ok
}

// queued reports whether id waits in the queue.
func (q *admissionQueue) queued(id string) bool {
	_, ok := q.tenantOf[id]
	return ok
}

// running reports whether id was handed out by next and not yet
// returned by done.
func (q *admissionQueue) running(id string) bool {
	_, ok := q.runs[id]
	return ok
}

// len is the number of queued IDs across every tenant.
func (q *admissionQueue) len() int { return len(q.tenantOf) }

// inFlight is the number of running IDs.
func (q *admissionQueue) inFlight() int { return len(q.runs) }

// dispatchable reports whether a queued ID's kind is below its class
// limit (absent or <= 0 is unlimited).
func (q *admissionQueue) dispatchable(id string) bool {
	kind := q.kindOf[id]
	limit := q.limits[kind]
	return limit <= 0 || q.busy[kind] < limit
}

// next moves the next ID by DRR from the queue to the running set and
// returns it: a visit tops a tenant's credit up to its weight, each ID
// served costs 1, and the ring stays on a tenant until its credit is
// spent, so tenants drain in proportion to their weights. With every
// slot taken it returns "" before any credit moves. An ID whose kind is
// at its class limit is passed over: the tenant's first dispatchable ID
// is served in its place, and a tenant with none is skipped without
// charge. "" means nothing may run now.
func (q *admissionQueue) next() string {
	if len(q.runs) >= q.slots {
		return ""
	}
	for range len(q.ring) {
		q.pos %= len(q.ring)
		t := q.ring[q.pos]
		i := slices.IndexFunc(q.fifos[t], q.dispatchable)
		if i < 0 {
			q.pos++
			continue
		}
		if q.credit[t] == 0 {
			q.credit[t] = q.weight(t)
		}
		q.credit[t]--
		kind := q.kindOf[q.fifos[t][i]]
		id := q.take(t, i)
		if _, stays := q.fifos[t]; stays && q.credit[t] == 0 {
			q.pos++ // visit spent; the next pick starts at the next tenant
		}
		q.runs[id] = kind
		q.busy[kind]++
		return id
	}
	return ""
}

// done returns a running ID's slot; an ID that is not running is
// ignored.
func (q *admissionQueue) done(id string) {
	if kind, ok := q.runs[id]; ok {
		delete(q.runs, id)
		q.busy[kind]--
	}
}

// take removes the i-th ID of tenant t's FIFO. A tenant left with
// nothing queued leaves the ring and forfeits its credit, so an idle
// tenant cannot hoard a quantum.
func (q *admissionQueue) take(t string, i int) string {
	fifo := q.fifos[t]
	id := fifo[i]
	delete(q.tenantOf, id)
	delete(q.kindOf, id)
	if len(fifo) > 1 {
		q.fifos[t] = append(fifo[:i], fifo[i+1:]...)
		return id
	}
	delete(q.fifos, t)
	delete(q.credit, t)
	r := slices.Index(q.ring, t)
	q.ring = slices.Delete(q.ring, r, r+1)
	if q.pos > r {
		q.pos--
	}
	return id
}
