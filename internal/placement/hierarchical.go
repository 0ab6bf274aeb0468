package placement

import (
	"context"
	"fmt"
	"sort"

	"ropus/internal/checkpoint"
	"ropus/internal/parallel"
	"ropus/internal/partition"
	"ropus/internal/robust"
	"ropus/internal/telemetry"
	"ropus/internal/topology"
)

// Hierarchical (pool-of-pools) consolidation. A flat genetic search over
// a 1k-app fleet is hopeless: the assignment space grows with the full
// cross product of apps and servers, and every offspring evaluation
// touches every server. The hierarchical search instead
//
//  1. partitions the fleet into sub-pools of at most MaxApps apps each
//     (internal/partition clusters by demand correlation, spreading
//     correlated families apart so each sub-pool multiplexes well),
//  2. solves each sub-pool with the ordinary genetic search — the
//     partitions are independent, so they run in parallel and each is
//     journaled as its own checkpoint work unit,
//  3. stitches the sub-plans onto the real pool (rack-aware when a
//     topology is given) and evaluates the combined assignment once
//     against the original problem.
//
// Determinism contract: the result depends only on the problem content
// and the configuration — every per-partition seed is an FNV-1a fold of
// (GA seed, partition count, partition index), partitions are stitched
// in a canonical order, and the per-partition searches share only the
// content-keyed simulation cache — so the plan is byte-identical at any
// Workers count. A single-partition exercise (fleet fits in MaxApps)
// delegates to Consolidate unchanged and reproduces the flat plan byte
// for byte.

// HierConfig parameterizes a hierarchical consolidation.
type HierConfig struct {
	// MaxApps is the sub-pool size cap handed to the partitioner.
	MaxApps int
	// Buckets is the correlation fingerprint resolution; 0 selects
	// partition.DefaultBuckets.
	Buckets int
	// Workers bounds how many sub-pools are solved concurrently;
	// <= 0 selects GOMAXPROCS. The plan does not depend on it.
	Workers int
	// Journal, when non-nil, checkpoints each solved partition as a
	// "placement.partition" work unit: a resumed run replays completed
	// partitions bit-exactly and solves only the rest.
	Journal *checkpoint.Journal
	// Topology, when non-nil, makes stitching rack-aware: each sub-pool
	// is placed on a single rack when one has room (largest sub-pools
	// first), so a rack failure hits few partitions.
	Topology *topology.Topology
}

// Validate checks the configuration.
func (c HierConfig) Validate() error {
	if c.MaxApps < 1 {
		return fmt.Errorf("placement: hierarchical MaxApps %d < 1", c.MaxApps)
	}
	if c.Buckets < 0 {
		return fmt.Errorf("placement: hierarchical Buckets %d < 0", c.Buckets)
	}
	return nil
}

// SubPool reports one solved partition of a hierarchical plan.
type SubPool struct {
	// Index is the partition's index in canonical partition order.
	Index int
	// AppIDs are the partition's applications, in problem order.
	AppIDs []string
	// Servers are the pool servers the partition was stitched onto.
	Servers []string
	// Rack is the rack the partition landed on; empty when stitching is
	// topology-free or the partition had to span racks.
	Rack string
	// ServersUsed is the partition's server count.
	ServersUsed int
	// Required is the partition's total required capacity in the final
	// evaluated plan.
	Required float64
	// Seed is the partition's derived GA seed.
	Seed int64
	// Replayed reports that the partition's solution came from a resumed
	// checkpoint journal instead of a fresh search.
	Replayed bool
}

// RackPlacement summarizes one rack of a topology-aware stitch.
type RackPlacement struct {
	// Rack is the rack domain ID.
	Rack string
	// Partitions are the indexes of the sub-pools placed on the rack.
	Partitions []int
	// Servers is the number of servers the rack contributed.
	Servers int
}

// HierPlan is an evaluated hierarchical consolidation.
type HierPlan struct {
	// Plan is the stitched assignment evaluated against the original
	// problem; byte-identical at any worker count.
	Plan *Plan
	// Partitions describe each sub-pool in canonical order.
	Partitions []SubPool
	// Racks summarizes the rack-aware stitch; nil without a topology.
	Racks []RackPlacement
}

// partitionRecord is the journaled result of one solved partition: the
// local assignment is everything needed to reproduce the stitch, and it
// round-trips through JSON exactly (all ints).
type partitionRecord struct {
	Assignment []int `json:"assignment"`
	// truncated marks a sub-search cut short by cancellation. Such a
	// record is never journaled, so the flag stays out of the encoding.
	truncated bool
}

// SplitProblem clusters the problem's applications into sub-pools by
// total-demand correlation (see internal/partition): each group holds at
// most cfg.MaxApps app indexes into p.Apps.
func SplitProblem(p *Problem, cfg HierConfig) (*partition.Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ids := make([]string, len(p.Apps))
	series := make([][]float64, len(p.Apps))
	for i, a := range p.Apps {
		ids[i] = a.ID
		total := make([]float64, len(a.Workload.CoS1))
		for t := range total {
			total[t] = a.Workload.CoS1[t] + a.Workload.CoS2[t]
		}
		series[i] = total
	}
	return partition.Split(ids, series, partition.Config{MaxApps: cfg.MaxApps, Buckets: cfg.Buckets})
}

// partitionSeed derives partition k's GA seed from the search seed with
// an FNV-1a fold, so per-partition searches are decorrelated but fixed
// by (seed, partitions, k).
func partitionSeed(seed int64, parts, k int) int64 {
	h := uint64(fnvOffset64)
	h = fnvString(h, "partition")
	h = fnvU64(h, uint64(seed))
	h = fnvInt(h, parts)
	h = fnvInt(h, k)
	return int64(h)
}

// partitionKey is the checkpoint work-unit key for one partition: its
// index, seed and member app IDs, so a journal replays only the exact
// same sub-problem.
func partitionKey(k int, seed int64, appIDs []string) uint64 {
	h := checkpoint.NewHasher().Int(int64(k)).Int(seed)
	for _, id := range appIDs {
		h.String(id)
	}
	return h.Sum()
}

// ConsolidateHierarchical runs the pool-of-pools consolidation. With a
// single partition (len(p.Apps) <= cfg.MaxApps) it delegates to
// Consolidate and the returned HierPlan wraps the identical flat plan.
// Otherwise initial is only validated — each sub-pool starts from its
// own one-app-per-server configuration.
//
// Cancellation degrades at partition boundaries: partitions that
// converged before the cancel are journaled (when cfg.Journal is set),
// so a killed run resumes from what it completed; the cancelled call
// itself returns an error, never a partial plan. The journal is
// best-effort, as in every checkpoint.Memo sweep: an unreadable record
// is recomputed and a failed append costs only that recompute.
func ConsolidateHierarchical(ctx context.Context, p *Problem, initial Assignment, ga GAConfig, cfg HierConfig) (hier *HierPlan, err error) {
	defer robust.Recover("placement.ConsolidateHierarchical", &err)
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := ga.Validate(); err != nil {
		return nil, err
	}
	if err := initial.Validate(p); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Sub-pools are solved on cloned server shapes and stitched onto
	// arbitrary pool servers, which is only sound when every server has
	// the same shape.
	shape := hashServerShape(p.Servers[0], p.attrs)
	for _, s := range p.Servers[1:] {
		if hashServerShape(s, p.attrs) != shape {
			return nil, fmt.Errorf("placement: hierarchical consolidation requires a uniform server shape; server %q differs from %q", s.ID, p.Servers[0].ID)
		}
	}

	res, err := SplitProblem(p, cfg)
	if err != nil {
		return nil, err
	}
	parts := len(res.Groups)

	h := telemetry.OrNop(p.Hooks)
	ctx, span := telemetry.StartSpanCtx(ctx, p.Hooks, "placement.hierarchical",
		telemetry.Int("apps", len(p.Apps)),
		telemetry.Int("servers", len(p.Servers)),
		telemetry.Int("partitions", parts))
	defer span.End()

	if parts == 1 {
		plan, err := Consolidate(ctx, p, initial, ga)
		if err != nil {
			return nil, err
		}
		sub := SubPool{AppIDs: appIDs(p, res.Groups[0]), Seed: ga.Seed,
			ServersUsed: plan.ServersUsed, Required: plan.RequiredTotal}
		for _, u := range plan.Usages {
			if len(u.AppIDs) > 0 {
				sub.Servers = append(sub.Servers, u.Server.ID)
			}
		}
		return &HierPlan{Plan: plan, Partitions: []SubPool{sub}}, nil
	}

	// Solve every partition independently. Results are index-addressed,
	// so the worker count cannot reorder them.
	type subResult struct {
		partitionRecord
		replayed bool
		err      error
	}
	results := make([]subResult, parts)
	cell := checkpoint.Cell{Journal: cfg.Journal, Unit: "placement.partition",
		Hooks: p.Hooks, Replays: "hier_partitions_replayed_total"}
	solvedC := h.Counter("hier_partitions_solved_total")
	// A sub-plan truncates only under ctx's cancellation, so the cell
	// never journals one; the whole call fails as cancelled below.
	solve := func(k int) {
		group := res.Groups[k]
		seed := partitionSeed(ga.Seed, parts, k)
		rec, _, replayed, err := checkpoint.Memo(ctx, cell, partitionKey(k, seed, appIDs(p, group)),
			fmt.Sprintf("partition/%03d", k),
			func(ctx context.Context) (partitionRecord, error) {
				sub := subProblem(p, group, k)
				start, err := OneAppPerServer(sub)
				if err != nil {
					return partitionRecord{}, err
				}
				subGA := ga
				subGA.Seed = seed
				plan, err := Consolidate(ctx, sub, start, subGA)
				if err != nil {
					return partitionRecord{}, fmt.Errorf("placement: partition %d (%d apps): %w", k, len(group), err)
				}
				return partitionRecord{Assignment: plan.Assignment, truncated: plan.Truncated}, nil
			})
		switch {
		case err != nil:
		case replayed:
			if verr := validLocal(rec.Assignment, len(group)); verr != nil {
				err = fmt.Errorf("placement: journaled partition %d: %w", k, verr)
			}
		case !rec.truncated:
			solvedC.Inc()
		}
		results[k] = subResult{partitionRecord: rec, replayed: replayed, err: err}
	}
	dispatched := parallel.ForEach(ctx, cfg.Workers, parts, solve)
	for k := 0; k < dispatched; k++ {
		if results[k].err != nil {
			return nil, results[k].err
		}
	}
	truncated := dispatched < parts
	for k := 0; k < dispatched; k++ {
		if results[k].truncated {
			truncated = true
		}
	}
	if truncated {
		return nil, fmt.Errorf("placement: hierarchical consolidation cancelled after %d of %d partitions: %w",
			dispatched, parts, context.Cause(ctx))
	}

	// Stitch: allocate pool servers to partitions (largest first so the
	// rack-aware first fit packs well), then translate each local
	// assignment through its allocation.
	used := make([]int, parts)
	for k := range results {
		used[k] = distinctServers(results[k].Assignment)
	}
	alloc, rackOf, racks, err := allocateServers(p, cfg.Topology, used)
	if err != nil {
		return nil, err
	}
	global := make(Assignment, len(p.Apps))
	for k, group := range res.Groups {
		locals := sortedDistinct(results[k].Assignment)
		toGlobal := make(map[int]int, len(locals))
		for j, l := range locals {
			toGlobal[l] = alloc[k][j]
		}
		for i, app := range group {
			global[app] = toGlobal[results[k].Assignment[i]]
		}
	}

	plan, err := newEvaluator(p).evaluate(ctx, global)
	if err != nil {
		return nil, err
	}

	hier = &HierPlan{Plan: plan, Racks: racks}
	for k, group := range res.Groups {
		sub := SubPool{
			Index:       k,
			AppIDs:      appIDs(p, group),
			Rack:        rackOf[k],
			ServersUsed: used[k],
			Seed:        partitionSeed(ga.Seed, parts, k),
			Replayed:    results[k].replayed,
		}
		for _, s := range alloc[k] {
			sub.Servers = append(sub.Servers, p.Servers[s].ID)
			sub.Required += plan.Usages[s].Required
		}
		hier.Partitions = append(hier.Partitions, sub)
	}
	span.SetAttr(telemetry.Int("servers_used", plan.ServersUsed),
		telemetry.Float("score", plan.Score),
		telemetry.Bool("feasible", plan.Feasible))
	return hier, nil
}

// appIDs lists a group's application IDs in problem order.
func appIDs(p *Problem, group []int) []string {
	ids := make([]string, len(group))
	for i, a := range group {
		ids[i] = p.Apps[a].ID
	}
	return ids
}

// subProblem clones the problem down to one partition: the group's apps
// and one same-shape server per app (local IDs, never stitched into the
// output). The shared simulation cache carries over — its keys are pure
// content, so sub-pool results and flat results interchange.
func subProblem(p *Problem, group []int, k int) *Problem {
	sub := &Problem{
		Apps:          make([]App, len(group)),
		Servers:       make([]Server, len(group)),
		Commitment:    p.Commitment,
		SlotsPerDay:   p.SlotsPerDay,
		DeadlineSlots: p.DeadlineSlots,
		Tolerance:     p.Tolerance,
		Hooks:         p.Hooks,
		Inject:        p.Inject,
		Cache:         p.Cache,
	}
	for i, a := range group {
		sub.Apps[i] = p.Apps[a]
	}
	shape := p.Servers[0]
	for i := range sub.Servers {
		sub.Servers[i] = Server{
			ID:          fmt.Sprintf("p%03d-s%03d", k, i+1),
			CPUs:        shape.CPUs,
			CPUCapacity: shape.CPUCapacity,
			Extra:       shape.Extra,
		}
	}
	return sub
}

// validLocal checks a journaled local assignment's dimensions.
func validLocal(a []int, n int) error {
	if len(a) != n {
		return fmt.Errorf("assignment covers %d apps, want %d", len(a), n)
	}
	for i, s := range a {
		if s < 0 || s >= n {
			return fmt.Errorf("app %d assigned to invalid local server %d", i, s)
		}
	}
	return nil
}

// distinctServers counts the distinct servers in an assignment.
func distinctServers(a Assignment) int {
	seen := make(map[int]bool, len(a))
	for _, s := range a {
		seen[s] = true
	}
	return len(seen)
}

// sortedDistinct returns the distinct values of a local assignment in
// ascending order — the canonical local-server enumeration the stitch
// maps onto allocated pool servers.
func sortedDistinct(a Assignment) []int {
	seen := make(map[int]bool, len(a))
	var out []int
	for _, s := range a {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Ints(out)
	return out
}

// allocateServers assigns pool server indexes to partitions. Partitions
// are placed largest-first (ties by index); with a topology each looks
// for the first rack (document order) with enough free servers and
// falls back to spanning the global free list; without one, a single
// anonymous pool makes the allocation sequential. The result depends
// only on the inputs.
func allocateServers(p *Problem, t *topology.Topology, used []int) (alloc [][]int, rackOf []string, racks []RackPlacement, err error) {
	type pool struct {
		id   string
		free []int
	}
	var pools []pool
	if t != nil {
		byID := make(map[string]int, len(p.Servers))
		for i, s := range p.Servers {
			byID[s.ID] = i
		}
		taken := make(map[int]bool, len(p.Servers))
		for _, rack := range t.DomainsOfKind(topology.KindRack) {
			members, merr := t.ServersIn(rack)
			if merr != nil {
				return nil, nil, nil, merr
			}
			var idx []int
			for _, s := range members { // members is sorted by ID
				if i, ok := byID[s]; ok && !taken[i] {
					idx = append(idx, i)
					taken[i] = true
				}
			}
			sort.Ints(idx)
			if len(idx) > 0 {
				pools = append(pools, pool{id: rack, free: idx})
			}
		}
		var rest []int
		for i := range p.Servers {
			if !taken[i] {
				rest = append(rest, i)
			}
		}
		if len(rest) > 0 {
			pools = append(pools, pool{free: rest})
		}
	} else {
		all := make([]int, len(p.Servers))
		for i := range all {
			all[i] = i
		}
		pools = []pool{{free: all}}
	}

	order := make([]int, len(used))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		if used[order[i]] != used[order[j]] {
			return used[order[i]] > used[order[j]]
		}
		return order[i] < order[j]
	})

	alloc = make([][]int, len(used))
	rackOf = make([]string, len(used))
	onRack := make(map[string][]int)
	for _, k := range order {
		need := used[k]
		placed := false
		for pi := range pools {
			if len(pools[pi].free) >= need {
				alloc[k] = pools[pi].free[:need:need]
				pools[pi].free = pools[pi].free[need:]
				rackOf[k] = pools[pi].id
				if pools[pi].id != "" {
					onRack[pools[pi].id] = append(onRack[pools[pi].id], k)
				}
				placed = true
				break
			}
		}
		if placed {
			continue
		}
		// No single rack fits: span the free list in pool order. The
		// partition keeps an empty Rack to flag the spill.
		var got []int
		for pi := range pools {
			for need > len(got) && len(pools[pi].free) > 0 {
				got = append(got, pools[pi].free[0])
				pools[pi].free = pools[pi].free[1:]
			}
		}
		if len(got) < need {
			return nil, nil, nil, fmt.Errorf("placement: hierarchical stitch needs %d more servers for partition %d (%d total in pool)",
				need-len(got), k, len(p.Servers))
		}
		alloc[k] = got
	}

	if t != nil {
		for _, rack := range t.DomainsOfKind(topology.KindRack) {
			parts := onRack[rack]
			if len(parts) == 0 {
				continue
			}
			sort.Ints(parts)
			servers := 0
			for _, k := range parts {
				servers += used[k]
			}
			racks = append(racks, RackPlacement{Rack: rack, Partitions: parts, Servers: servers})
		}
	}
	return alloc, rackOf, racks, nil
}
