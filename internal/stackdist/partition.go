package stackdist

import (
	"sort"

	"subcache/internal/cache"
)

// Unit is one shard worker's share of a stack group: the group's full
// lane set (Idxs indexes the partitioned configuration slice; sibling
// units of one group share the same slice) restricted to the set
// partition blk & (Parts-1) == Part.  Each unit becomes one Engine;
// sibling units' statistics sum exactly (cache.Stats.Add) to the
// unpartitioned group's, so partitioning never perturbs results.
type Unit struct {
	// Gid identifies the stack group the unit belongs to; sibling units
	// (same group, different Part) carry the same Gid, and their partial
	// statistics must be merged before reporting.  Gids are dense,
	// starting at 0, in first-appearance order of the group's lowest
	// configuration index.
	Gid   int
	Idxs  []int
	Parts uint64
	Part  uint64
}

// cost estimates the unit's per-access simulation work, mirroring the
// multipass planner's scale: one shared stack walk plus one lane update
// per member, divided by the partition fan-out since each sibling only
// processes 1/Parts of the block stream.
func (u Unit) cost() int {
	c := (2 + len(u.Idxs)) / int(u.Parts)
	if c < 1 {
		c = 1
	}
	return c
}

// Plan is one shard worker's list of stack units.
type Plan struct {
	Units []Unit
}

// Cost is the planner's estimated per-access cost of the plan, for
// telemetry's estimated-versus-observed shard load reporting.
func (p Plan) Cost() int {
	c := 0
	for _, u := range p.Units {
		c += u.cost()
	}
	return c
}

// Group splits cfgs into stack groups -- index lists sharing a Key, all
// Supported -- plus the rest, which need a different engine.  Order is
// deterministic: groups by first appearance, indexes ascending.
func Group(cfgs []cache.Config) (groups [][]int, rest []int) {
	byKey := make(map[cache.Config]int)
	for i, cfg := range cfgs {
		if Supported(cfg) != nil {
			rest = append(rest, i)
			continue
		}
		k := Key(cfg)
		gi, ok := byKey[k]
		if !ok {
			gi = len(groups)
			byKey[k] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], i)
	}
	return groups, rest
}

// maxParts returns how far a group's set partition may fan out: the
// smallest member set count, or 1 when any member uses warm start
// (whose frame-fill progress is global across sets).
func maxParts(cfgs []cache.Config, idxs []int) uint64 {
	m := uint64(0)
	for _, k := range idxs {
		if cfgs[k].WarmStart {
			return 1
		}
		s := uint64(cfgs[k].NumSets())
		if m == 0 || s < m {
			m = s
		}
	}
	return m
}

// Partition splits the Supported members of cfgs across at most shards
// workers, balancing estimated per-access cost, and returns the
// leftover indexes that need another engine.  Unlike the multipass
// planner, a stack group is never split by membership -- every lane
// needs the whole recency list -- so idle shards are filled by set
// partitioning instead: the costliest splittable group doubles its
// partition fan-out until every shard has work or nothing can split
// further.  The result is deterministic, covers every Supported index
// once per partition, and contains only non-empty plans.
func Partition(cfgs []cache.Config, shards int) ([]Plan, []int) {
	if shards < 1 {
		shards = 1
	}
	groups, rest := Group(cfgs)

	parts := make([]uint64, len(groups))
	limit := make([]uint64, len(groups))
	total := 0
	for gi, idxs := range groups {
		parts[gi] = 1
		limit[gi] = maxParts(cfgs, idxs)
		total++
	}
	for total < shards {
		best, bestCost := -1, 0
		for gi, idxs := range groups {
			if parts[gi]*2 > limit[gi] {
				continue
			}
			if c := (Unit{Idxs: idxs, Parts: parts[gi]}).cost(); best < 0 || c > bestCost {
				best, bestCost = gi, c
			}
		}
		if best < 0 {
			break
		}
		total -= int(parts[best])
		parts[best] *= 2
		total += int(parts[best])
	}

	units := make([]Unit, 0, total)
	for gi, idxs := range groups {
		for part := uint64(0); part < parts[gi]; part++ {
			units = append(units, Unit{Gid: gi, Idxs: idxs, Parts: parts[gi], Part: part})
		}
	}

	// More shards than units would only be dropped below as empty plans.
	shards = min(shards, len(units))

	// Longest-processing-time greedy, deterministic: heaviest first,
	// ties on lowest group then lowest partition, each to the
	// least-loaded shard.
	sort.SliceStable(units, func(i, j int) bool {
		if ci, cj := units[i].cost(), units[j].cost(); ci != cj {
			return ci > cj
		}
		if units[i].Gid != units[j].Gid {
			return units[i].Gid < units[j].Gid
		}
		return units[i].Part < units[j].Part
	})
	plans := make([]Plan, shards)
	loads := make([]int, shards)
	for _, u := range units {
		best := 0
		for s := 1; s < shards; s++ {
			if loads[s] < loads[best] {
				best = s
			}
		}
		loads[best] += u.cost()
		plans[best].Units = append(plans[best].Units, u)
	}
	out := plans[:0]
	for _, p := range plans {
		if len(p.Units) > 0 {
			out = append(out, p)
		}
	}
	return out, rest
}
