package placement

import (
	"math"
	"sync"
)

// The shared cross-run simulation cache. A consolidation exercise's
// expensive unit of work is the (server-capacity, app-group) simulation:
// one bisection search over replays of the aggregated traces. The GA
// re-creates its per-run evaluator for every Consolidate call, so the
// base-plan search, the N failure-scenario searches, the greedy seeds
// and the capacity planner all keep re-simulating groups the pipeline
// has already solved. A SimCache hoists those
// results out of the run: entries are keyed by content (a hash of the
// traces in the group, the commitment/tolerance configuration, and the
// server's capacity signature — not its identity), so a result computed
// for the base plan is valid verbatim in every failure scenario where
// the same group lands on a server of the same shape. A failed server
// changes which groups are legal, not what a group costs on a survivor.
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
// produce, so cached and uncached runs yield byte-identical plans; that
// property is what lets the parallel sweeps stay deterministic.
//
// The cache is bypassed when a Problem carries a fault injector:
// injection points must keep firing per evaluation.

// DefaultSimCacheBytes is the byte bound used when NewSimCache is given
// a non-positive size.
const DefaultSimCacheBytes = 256 << 20

// cacheKey identifies an entry by three independent FNV-1a lanes
// (configuration, server shape, group content), an effective key width
// of 192 bits. A warm entry belongs to no server: server is zero and
// warm is set.
type cacheKey struct {
	cfg, server, group uint64
	warm               bool
}

// cacheEntry is one cached record and its own LRU node.
type cacheEntry struct {
	prev, next *cacheEntry
	key        cacheKey
	eval       groupEval
}

// CacheStats is a point-in-time snapshot of a SimCache's counters.
type CacheStats struct {
	// Hits and Misses count full-usage lookups.
	Hits, Misses int64
	// WarmHits counts cross-capacity warm-start reuses of a search.
	WarmHits int64
	// Evictions counts entries dropped to honour the byte bound.
	Evictions int64
	// Entries and Bytes describe the current contents.
	Entries int
	Bytes   int64
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// SimCache is a size-bounded (LRU, byte-accounted) concurrent cache of
// per-(server-shape, app-group) simulation results, shared across
// consolidation runs via Problem.Cache. The zero value is not usable;
// construct with NewSimCache.
type SimCache struct {
	mu      sync.Mutex
	max     int64
	bytes   int64
	lru     cacheEntry // ring sentinel: lru.next is most recently used
	entries map[cacheKey]*cacheEntry

	hits, misses, warmHits, evictions int64
}

// NewSimCache builds a cache bounded to maxBytes of accounted entry
// payload (estimated, not exact); maxBytes <= 0 selects
// DefaultSimCacheBytes.
func NewSimCache(maxBytes int64) *SimCache {
	if maxBytes <= 0 {
		maxBytes = DefaultSimCacheBytes
	}
	c := &SimCache{max: maxBytes, entries: make(map[cacheKey]*cacheEntry)}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

// Stats snapshots the cache counters.
func (c *SimCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		WarmHits:  c.warmHits,
		Evictions: c.evictions,
		Entries:   len(c.entries),
		Bytes:     c.bytes,
	}
}

// unlink removes e from the LRU ring, if it is on it.
func (e *cacheEntry) unlink() {
	if e.prev != nil {
		e.prev.next, e.next.prev = e.next, e.prev
	}
}

// touch makes e the most recently used entry, linking it in if new.
func (c *SimCache) touch(e *cacheEntry) {
	e.unlink()
	e.prev, e.next = &c.lru, c.lru.next
	e.prev.next, e.next.prev = e, e
}

// getUsage looks up a full usage entry.
func (c *SimCache) getUsage(k cacheKey) (groupEval, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if !ok {
		c.misses++
		return groupEval{}, false
	}
	c.hits++
	c.touch(e)
	return e.eval, true
}

// getWarm looks up a warm search outcome reusable at capacity: the
// cached search must gate (the group's TotalPeak, which every replay
// reports as Result.PeakAggregate) at or below it.
func (c *SimCache) getWarm(k cacheKey, capacity float64) (groupEval, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if !ok || capacity < e.eval.result.PeakAggregate {
		return groupEval{}, false
	}
	c.warmHits++
	c.touch(e)
	return e.eval, true
}

// put stores an entry — a full usage, or under a warm key an Unclamped
// primary-attribute search outcome — and returns how many entries were
// evicted to make room.
func (c *SimCache) put(k cacheKey, ev groupEval) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[k]; ok { // concurrent computations of one key race benignly
		c.touch(e)
		return 0
	}
	e := &cacheEntry{key: k, eval: ev}
	c.entries[k] = e
	c.touch(e)
	c.bytes += entryBytes(ev)
	n := 0
	for c.bytes > c.max && len(c.entries) > 0 {
		last := c.lru.prev
		last.unlink()
		delete(c.entries, last.key)
		c.bytes -= entryBytes(last.eval)
		n++
	}
	c.evictions += int64(n)
	return n
}

// entryBytes is the accounted heap cost of one entry: the 128-byte
// cacheEntry, its share of the index map (a 32-byte key, a pointer and
// the tables' slack: 63 to 100 bytes as the map grows, measured on
// go1.24), and the per-attribute map a multi-attribute record points
// at. TestSimCacheBytesHonest holds it to the measured heap.
func entryBytes(ev groupEval) int64 {
	return 208 + int64(len(ev.extra))*64
}

// ---------------------------------------------------------------------
// Content hashing (FNV-1a, 64-bit). The cache keys must identify the
// simulation inputs by value: trace contents, commitment parameters and
// server capacities, never slice identities or server IDs.

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
// must be folded in here, or stale shared-cache hits will alias them.
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
// entries.
func hashServerShape(s Server, attrs []Attribute) uint64 {
	h := uint64(fnvOffset64)
	h = fnvInt(h, s.CPUs)
	h = fnvF64(h, s.CPUCapacity)
	for _, attr := range attrs { // attrs is sorted by Validate
		h = fnvString(h, string(attr))
		h = fnvF64(h, s.Extra[attr])
	}
	return h
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
