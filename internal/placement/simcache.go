package placement

import (
	"math"
	"sync"
	"sync/atomic"
)

// The evaluation store. A consolidation exercise's expensive unit of
// work is the (server-capacity, app-group) simulation: one bisection
// search over replays of the aggregated traces. Every evaluator scores
// against one SimCache — Problem.Cache, or a private one — so a group is
// simulated once and stored once, and the base plan, the failure
// scenarios, the greedy seeds and the capacity planner stop
// re-simulating groups the pipeline has already solved. Entries are
// keyed by content (the traces in the group, the commitment/tolerance
// configuration and the server's capacity signature — not its
// identity), so a result computed for the base plan is valid verbatim in
// every failure scenario where the same group lands on a server of the
// same shape. A failed server changes which groups are legal, not what a
// group costs on a survivor.
//
// Two entry kinds live in one LRU, both holding the same compact
// groupEval record (no server, no app IDs: a hit is told about a group
// by whoever asks):
//
//   - usage entries: the full outcome for (cfg, server-shape, group).
//     Hits skip the simulation entirely.
//   - warm entries: the primary-attribute search outcome for (cfg,
//     group) when the search was Unclamped (see sim.SearchOutcome): the
//     bisection ran over [CoS1Peak, TotalPeak] and is therefore valid,
//     bit for bit, for any server whose capacity is >= the group's
//     TotalPeak — including capacities never simulated before.
//
// Both reuse paths reproduce exactly what a cold computation would
// produce, so plans are byte-identical whatever the store holds: the
// parallel sweeps stay deterministic, and a run that loses a record to
// eviction computes it again.

// DefaultSimCacheBytes is the byte bound used when NewSimCache is given
// a non-positive size.
const DefaultSimCacheBytes = 256 << 20

// cacheShardBits sets how many lock+map+LRU shards a store is split
// across: a GA's offspring, a hierarchical plan's partitions and a
// sweep's scenarios ask it from many goroutines at once.
const (
	cacheShardBits = 4
	cacheShards    = 1 << cacheShardBits
)

// cacheKey identifies an entry by three independent FNV-1a lanes
// (configuration, server, group content), an effective key width of 192
// bits. A usage entry's server lane is the server's shape signature,
// which is never zero; a warm entry belongs to no server and its server
// lane is zero (in an injecting run, a digest of the server ID).
type cacheKey struct {
	cfg, server, group uint64
}

// cacheEntry is one cached record and its own LRU node. run names the
// evaluator that used it last (computed it, or reused it since), so
// that a run's first use of another run's record counts as reuse
// across runs. The record never changes once stored, so a hit hands out
// a pointer to it.
type cacheEntry struct {
	prev, next *cacheEntry
	key        cacheKey
	run        uint64
	eval       groupEval
}

// inflightEval lets goroutines that need a group another goroutine — of
// this run or of another one on the same store — is already simulating
// wait for that single computation instead of racing to duplicate it.
// The leader fills in the outcome and its run before closing done.
type inflightEval struct {
	done chan struct{}
	run  uint64
	eval *groupEval
	err  error
}

// cacheShard is one lock's worth of the store: its part of the byte
// budget, an LRU ring, the index and the in-flight (singleflight) table.
// A key being computed maps to nil in inflight until a second goroutine
// actually has to wait for it.
type cacheShard struct {
	mu       sync.Mutex
	max      int64
	bytes    int64
	lru      cacheEntry // ring sentinel: lru.next is most recently used
	entries  map[cacheKey]*cacheEntry
	inflight map[cacheKey]*inflightEval
}

// CacheStats is a point-in-time snapshot of a SimCache's counters.
type CacheStats struct {
	// Hits counts reuse across runs: a run's first use of a record
	// another run computed or used last. Misses counts computations.
	Hits, Misses int64
	// WarmHits counts cross-capacity warm-start reuses of a search.
	WarmHits int64
	// Evictions counts entries dropped to honour the byte bound.
	Evictions int64
	// Entries and Bytes describe the current contents.
	Entries int
	Bytes   int64
}

// SimCache is a size-bounded (LRU, byte-accounted) concurrent store of
// per-(server-shape, app-group) simulation results, shared across
// consolidation runs via Problem.Cache. The zero value is not usable;
// construct with NewSimCache.
type SimCache struct {
	shards                            [cacheShards]cacheShard
	hits, misses, warmHits, evictions atomic.Int64
	// runs numbers the evaluators using the store (see cacheEntry.run).
	runs atomic.Uint64
}

// NewSimCache builds a store bounded to maxBytes of accounted entry
// payload (estimated, not exact), split evenly over its shards;
// maxBytes <= 0 selects DefaultSimCacheBytes.
func NewSimCache(maxBytes int64) *SimCache {
	if maxBytes <= 0 {
		maxBytes = DefaultSimCacheBytes
	}
	c := new(SimCache)
	for i := range c.shards {
		sh := &c.shards[i]
		sh.max = maxBytes / cacheShards
		if int64(i) < maxBytes%cacheShards {
			sh.max++
		}
		sh.entries = make(map[cacheKey]*cacheEntry)
		sh.inflight = make(map[cacheKey]*inflightEval)
		sh.lru.prev, sh.lru.next = &sh.lru, &sh.lru
	}
	return c
}

// shard returns the shard holding k, picked by the top bits of a
// multiplicative mix of its lanes.
func (c *SimCache) shard(k cacheKey) *cacheShard {
	return &c.shards[(k.cfg^k.server^k.group)*0x9e3779b97f4a7c15>>(64-cacheShardBits)]
}

// Stats snapshots the store's counters.
func (c *SimCache) Stats() CacheStats {
	s := CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), WarmHits: c.warmHits.Load(), Evictions: c.evictions.Load()}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		s.Entries += len(sh.entries)
		s.Bytes += sh.bytes
		sh.mu.Unlock()
	}
	return s
}

// unlink removes e from the LRU ring, if it is on it.
func (e *cacheEntry) unlink() {
	if e.prev != nil {
		e.prev.next, e.next.prev = e.next, e.prev
		e.prev, e.next = nil, nil
	}
}

// touch makes e the most recently used entry, linking it in if new.
func (sh *cacheShard) touch(e *cacheEntry) {
	if sh.lru.next == e {
		return
	}
	e.unlink()
	e.prev, e.next = &sh.lru, sh.lru.next
	e.prev.next, e.next.prev = e, e
}

// insert stores e in sh, which the caller has locked, as the most
// recently used entry — unless its key is already there (two runs may
// publish one warm outcome) — and evicts least recently used entries
// until sh is within its budget, returning how many it evicted.
func (c *SimCache) insert(sh *cacheShard, e *cacheEntry) int {
	if old, ok := sh.entries[e.key]; ok {
		sh.touch(old)
		return 0
	}
	sh.entries[e.key] = e
	sh.touch(e)
	sh.bytes += entryBytes(&e.eval)
	n := 0
	for sh.bytes > sh.max && len(sh.entries) > 0 {
		last := sh.lru.prev
		last.unlink()
		delete(sh.entries, last.key)
		sh.bytes -= entryBytes(&last.eval)
		n++
	}
	c.evictions.Add(int64(n))
	return n
}

// getWarm looks up a warm search outcome reusable at capacity: the
// cached search must gate (the group's TotalPeak, which every replay
// reports as Result.PeakAggregate) at or below it.
func (c *SimCache) getWarm(k cacheKey, capacity float64) (*groupEval, bool) {
	sh := c.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[k]
	if !ok || capacity < e.eval.result.PeakAggregate {
		return nil, false
	}
	c.warmHits.Add(1)
	sh.touch(e)
	return &e.eval, true
}

// put stores a record run computed outside the singleflight — under a
// warm key, an Unclamped primary-attribute search outcome — and returns
// how many entries were evicted to make room.
func (c *SimCache) put(k cacheKey, run uint64, ev groupEval) int {
	e := &cacheEntry{key: k, run: run, eval: ev}
	sh := c.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return c.insert(sh, e)
}

// entryBytes is the accounted heap cost of one entry: the 128-byte
// cacheEntry, its share of the index map (a 24-byte key, a pointer and
// the tables' slack as the map grows, measured on go1.24), and the
// per-attribute map a multi-attribute record points at.
// TestSimCacheBytesHonest holds it to the measured heap.
func entryBytes(ev *groupEval) int64 {
	return 192 + int64(len(ev.extra))*64
}

// ---------------------------------------------------------------------
// Content hashing (FNV-1a, 64-bit). The cache keys must identify the
// simulation inputs by value: trace contents, commitment parameters and
// server capacities, never slice identities or (outside an injecting
// run) server IDs.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvU64 folds an 8-byte value into an FNV-1a state.
func fnvU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

// fnvF64 folds a float64 by its bit pattern.
func fnvF64(h uint64, v float64) uint64 { return fnvU64(h, math.Float64bits(v)) }

// fnvInt folds an int.
func fnvInt(h uint64, v int) uint64 { return fnvU64(h, uint64(int64(v))) }

// fnvString folds a length-delimited string.
func fnvString(h uint64, s string) uint64 {
	h = fnvInt(h, len(s))
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// fnvSamples folds a trace's samples by value.
func fnvSamples(h uint64, s []float64) uint64 {
	h = fnvInt(h, len(s))
	for _, v := range s {
		h = fnvF64(h, v)
	}
	return h
}

// hashConfig digests every Problem field that parameterizes a
// simulation outcome (the commitment, slot geometry, bisection
// tolerance and score model). New simulation-relevant Problem fields
// must be folded in here (or, per server, in hashServerShape), or the
// store will alias them; TestHashConfigCoversProblem fails until they
// are, or are excluded by name.
func hashConfig(p *Problem) uint64 {
	h := uint64(fnvOffset64)
	h = fnvF64(h, p.Commitment.Theta)
	h = fnvU64(h, uint64(p.Commitment.Deadline))
	h = fnvInt(h, p.SlotsPerDay)
	h = fnvInt(h, p.DeadlineSlots)
	h = fnvF64(h, p.tolerance())
	h = fnvInt(h, int(p.Score))
	return h
}

// hashServerShape digests a server's capacity signature — everything a
// simulation reads except its identity, so same-shape servers share
// entries. It is never zero, the server lane of a warm key.
func hashServerShape(s Server, attrs []Attribute) uint64 {
	h := uint64(fnvOffset64)
	h = fnvInt(h, s.CPUs)
	h = fnvF64(h, s.CPUCapacity)
	for _, attr := range attrs { // attrs is sorted by Validate
		h = fnvString(h, string(attr))
		h = fnvF64(h, s.Extra[attr])
	}
	return max(h, 1)
}

// hashGroup digests a sorted app-index group through the apps' content
// digests (see App.Prepare). Failure-mode translations share the app ID
// but carry different samples, so they hash apart.
func hashGroup(apps []App, group []int) uint64 {
	h := uint64(fnvOffset64)
	h = fnvInt(h, len(group))
	for _, a := range group {
		h = fnvU64(h, apps[a].digest)
	}
	return h
}
