package placement

import (
	"math"
	"math/bits"
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
// Each entry is the full outcome for (cfg, server-shape, group), held
// as a compact groupEval record (no server, no app IDs: a hit is told
// about a group by whoever asks), and a hit skips the simulation
// entirely. A hit reproduces exactly what a cold computation would
// produce, so plans are byte-identical whatever the store holds: the
// parallel sweeps stay deterministic, and a run that loses a record to
// eviction computes it again.
//
// Inside a shard, records live by value in a slab of chunks that never
// move, so a record costs its own bytes, not a heap object and a
// pointer to it. An open-addressed table of 4-byte
// slot numbers indexes the slab, and a CLOCK hand walking the slab
// bounds it: a hit sets the record's reference bit, and eviction clears
// set bits until it finds a record nobody used since the hand last
// passed. A slot eviction frees is reused, so a hit copies the record
// out under the shard lock instead of handing out a pointer into the
// slab.

// DefaultSimCacheBytes is the byte bound used when NewSimCache is given
// a non-positive size.
const DefaultSimCacheBytes = 256 << 20

// cacheShardBits sets how many lock+slab+index shards a store is split
// across: a GA's offspring, a hierarchical plan's partitions and a
// sweep's scenarios ask it from many goroutines at once.
const (
	cacheShardBits = 4
	cacheShards    = 1 << cacheShardBits
)

// Slab and index geometry. A shard's first chunkSize slots live in
// growChunks chunks that double from firstChunk records (8, 8, 16, …,
// 256), so a small store (a Table I case, a serve job's private store)
// does not pay sixteen full chunks up front, and growth never copies a
// record; every later chunk holds chunkSize. The index starts at
// minIndex positions and doubles when a store would fill more than 3/4
// of it.
const (
	chunkBits      = 9
	chunkSize      = 1 << chunkBits
	firstChunkBits = 3
	firstChunk     = 1 << firstChunkBits
	growChunks     = chunkBits - firstChunkBits + 1
	minIndex       = 16
)

// cacheKey identifies an entry by three independent lanes
// (configuration, server, group content), an effective key width of 192
// bits. The server lane is the server's shape signature (in an injecting
// run, folded with the server ID).
type cacheKey struct {
	cfg, server, group uint64
}

// indexHash mixes the key's three lanes into the index probe start.
// The shard was picked by the top bits of another mix of the same
// lanes, so this one finishes with a full avalanche of its own.
func (k cacheKey) indexHash() uint64 {
	h := k.group ^ k.server*0x9e3779b97f4a7c15 ^ k.cfg*0xc2b2ae3d27d4eb4f
	h ^= h >> 32
	h *= 0xd6e8feb86659fd93
	return h ^ h>>32
}

// cacheRecord is one slab slot. live marks a slot holding a record (a
// free one is zero); ref is the CLOCK reference bit, set by a hit and
// cleared by the passing hand. run names the evaluator that used the
// record last (computed it, or reused it since), so that a run's first
// use of another run's record counts as reuse across runs.
type cacheRecord struct {
	key       cacheKey
	run       uint64
	live, ref bool
	eval      groupEval
}

// inflightEval lets goroutines that need a group another goroutine — of
// this run or of another one on the same store — is already simulating
// wait for that single computation instead of racing to duplicate it.
// The leader fills in the outcome and its run before closing done.
type inflightEval struct {
	done chan struct{}
	run  uint64
	eval groupEval
	err  error
}

// cacheShard is one lock's worth of the store: its part of the byte
// budget, the slab, its index and hand, and the in-flight
// (singleflight) table. slots counts the slab slots handed out so far
// (see slotChunk), and those eviction emptied wait on free. index holds
// slot+1, or 0 for an empty position, and its length is a power of
// two. A key being computed maps to nil in inflight until a second
// goroutine actually has to wait for it.
type cacheShard struct {
	mu       sync.Mutex
	max      int64
	bytes    int64
	live     int
	chunks   [][]cacheRecord
	slots    int32
	free     []int32
	index    []int32
	hand     int32
	inflight map[cacheKey]*inflightEval
}

// CacheStats is a point-in-time snapshot of a SimCache's counters.
type CacheStats struct {
	// Hits counts reuse across runs: a run's first use of a record
	// another run computed or used last. Misses counts computations.
	Hits, Misses int64
	// Evictions counts entries dropped to honour the byte bound.
	Evictions int64
	// Entries and Bytes describe the current contents.
	Entries int
	Bytes   int64
}

// SimCache is a size-bounded (CLOCK, byte-accounted) concurrent store
// of per-(server-shape, app-group) simulation results, shared across
// consolidation runs via Problem.Cache. The zero value is not usable;
// construct with NewSimCache.
type SimCache struct {
	shards                  [cacheShards]cacheShard
	hits, misses, evictions atomic.Int64
	// runs numbers the evaluators using the store (see cacheRecord.run).
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
		sh.inflight = make(map[cacheKey]*inflightEval)
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
	s := CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Evictions: c.evictions.Load()}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		s.Entries += sh.live
		s.Bytes += sh.bytes
		sh.mu.Unlock()
	}
	return s
}

// slotChunk locates slab slot s: its chunk and its offset there.
func slotChunk(s int32) (int, int32) {
	if s >= chunkSize {
		return growChunks - 1 + int(s>>chunkBits), s & (chunkSize - 1)
	}
	c := bits.Len32(uint32(s) >> firstChunkBits)
	return c, s & (chunkLen(c) - 1)
}

// chunkLen is the number of records chunk c holds.
func chunkLen(c int) int32 {
	if c >= growChunks {
		return chunkSize
	}
	return firstChunk << max(c-1, 0)
}

// record returns slab slot s.
func (sh *cacheShard) record(s int32) *cacheRecord {
	c, off := slotChunk(s)
	return &sh.chunks[c][off]
}

// find returns the record stored under k, or nil.
func (sh *cacheShard) find(k cacheKey) *cacheRecord {
	if len(sh.index) == 0 {
		return nil
	}
	mask := uint64(len(sh.index) - 1)
	for i := k.indexHash() & mask; ; i = (i + 1) & mask {
		v := sh.index[i]
		if v == 0 {
			return nil
		}
		if r := sh.record(v - 1); r.key == k {
			return r
		}
	}
}

// place puts slot s, holding key k, at the first empty position of k's
// probe sequence.
func (sh *cacheShard) place(k cacheKey, s int32) {
	mask := uint64(len(sh.index) - 1)
	i := k.indexHash() & mask
	for sh.index[i] != 0 {
		i = (i + 1) & mask
	}
	sh.index[i] = s + 1
}

// grow doubles the index (or allocates the first one) and re-places
// every live slot.
func (sh *cacheShard) grow() {
	old := sh.index
	sh.index = make([]int32, max(2*len(old), minIndex))
	for _, v := range old {
		if v != 0 {
			sh.place(sh.record(v-1).key, v-1)
		}
	}
}

// unindex removes slot s, holding key k, from the index by backward-
// shift deletion: each later entry of the probe run whose home position
// does not lie cyclically in (hole, entry] moves back into the hole,
// so lookups never need tombstones.
func (sh *cacheShard) unindex(k cacheKey, s int32) {
	mask := uint64(len(sh.index) - 1)
	hole := k.indexHash() & mask
	for sh.index[hole] != s+1 {
		hole = (hole + 1) & mask
	}
	for j := (hole + 1) & mask; sh.index[j] != 0; j = (j + 1) & mask {
		home := sh.record(sh.index[j]-1).key.indexHash() & mask
		if (j-home)&mask >= (j-hole)&mask {
			sh.index[hole] = sh.index[j]
			hole = j
		}
	}
	sh.index[hole] = 0
}

// alloc returns an empty slab slot: one eviction freed, or the next
// never-used one, adding a chunk when the last is full.
func (sh *cacheShard) alloc() int32 {
	if n := len(sh.free); n > 0 {
		s := sh.free[n-1]
		sh.free = sh.free[:n-1]
		return s
	}
	s := sh.slots
	sh.slots++
	if c, off := slotChunk(s); off == 0 {
		sh.chunks = append(sh.chunks, make([]cacheRecord, chunkLen(c)))
	}
	return s
}

// evict advances the hand to the first live record whose reference bit
// is clear, clearing the set bits it passes, and drops that record. The
// caller has locked sh, which holds a live record.
func (sh *cacheShard) evict() {
	for {
		s := sh.hand
		if sh.hand++; sh.hand == sh.slots {
			sh.hand = 0
		}
		r := sh.record(s)
		switch {
		case !r.live:
		case r.ref:
			r.ref = false
		default:
			sh.unindex(r.key, s)
			sh.bytes -= entryBytes(&r.eval)
			sh.live--
			*r = cacheRecord{}
			sh.free = append(sh.free, s)
			return
		}
	}
}

// insert stores a record under k in sh, which the caller has locked,
// and evicts records until sh is within its budget, returning how many
// it evicted. k must be absent: its one writer is the singleflight
// leader that claimed it.
func (c *SimCache) insert(sh *cacheShard, k cacheKey, run uint64, ev *groupEval) int {
	if 4*(sh.live+1) > 3*len(sh.index) {
		sh.grow()
	}
	s := sh.alloc()
	*sh.record(s) = cacheRecord{key: k, run: run, live: true, eval: *ev}
	sh.place(k, s)
	sh.live++
	sh.bytes += entryBytes(ev)
	n := 0
	for sh.bytes > sh.max && sh.live > 0 {
		sh.evict()
		n++
	}
	c.evictions.Add(int64(n))
	return n
}

// get copies out the record stored under k in sh, which the caller has
// locked, marking it referenced and used last by run; reused reports
// that another run had used it last.
func (sh *cacheShard) get(k cacheKey, run uint64) (ev groupEval, reused, ok bool) {
	r := sh.find(k)
	if r == nil {
		return groupEval{}, false, false
	}
	r.ref = true
	reused = r.run != run
	r.run = run
	return r.eval, reused, true
}

// entryBytes is the accounted heap cost of one entry: its 120-byte slab
// slot with its share of the chunks' size-class rounding and of the
// last, partly used chunk; its share of the index (4-byte positions at
// a load between 3/8 and 3/4); and the per-attribute map a
// multi-attribute record points at. TestSimCacheBytesHonest holds it to
// the measured heap.
func entryBytes(ev *groupEval) int64 {
	return 144 + int64(len(ev.extra))*64
}

// ---------------------------------------------------------------------
// Content hashing. The cache keys must identify the simulation inputs
// by value: trace contents, commitment parameters and server
// capacities, never slice identities or (outside an injecting run)
// server IDs. Scalars and strings fold byte-wise (FNV-1a, 64-bit); the
// two hot digests — an app's samples and a group's app digests — fold a
// whole word per step (foldWord).

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

// foldWord folds a 64-bit word into a digest state in one multiply.
// For a fixed word each step is a bijection of the state, and for a
// fixed state a bijection of the word, so two sequences of equal
// length that differ in exactly one word never fold to the same digest.
func foldWord(h, v uint64) uint64 {
	h = (h ^ v) * 0xbf58476d1ce4e5b9
	return h ^ h>>31
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

// foldSamples folds a length-delimited trace's samples by value, one
// word per sample.
func foldSamples(h uint64, s []float64) uint64 {
	h = foldWord(h, uint64(len(s)))
	for _, v := range s {
		h = foldWord(h, math.Float64bits(v))
	}
	return h
}

// hashConfig digests every Problem field that parameterizes a
// simulation outcome (the commitment, slot geometry, bisection
// and tolerance). New simulation-relevant Problem fields
// must be folded in here (or, per server, in hashServerShape), or the
// store will alias them; TestHashConfigCoversProblem fails until they
// are, or are excluded by name.
func hashConfig(p *Problem) uint64 {
	h := uint64(fnvOffset64)
	h = fnvF64(h, p.Commitment.Theta)
	h = fnvU64(h, uint64(p.Commitment.Deadline))
	h = fnvInt(h, p.SlotsPerDay)
	h = fnvInt(h, p.DeadlineSlots)
	return fnvF64(h, p.tolerance())
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
	h := foldWord(fnvOffset64, uint64(len(group)))
	for _, a := range group {
		h = foldWord(h, apps[a].digest)
	}
	return h
}
