package multipass

import (
	"sort"

	"subcache/internal/cache"
)

// ShardPlan is one shard worker's slice of a configuration set.
// Families lists single-pass family groups (each a list of indexes into
// the partitioned configuration slice, formed by Group or a part of
// one); Rest lists the indexes that need the reference simulator.  A
// plan set produced by PartitionShards covers every input index exactly
// once across all shards.
type ShardPlan struct {
	Families [][]int
	Rest     []int
}

// Cost is the partitioner's estimated per-access simulation cost of the
// whole plan -- the load PartitionShards balanced.  Exposed so the
// telemetry layer can report estimated versus observed shard load.
func (p ShardPlan) Cost() int {
	c := 0
	for _, idxs := range p.Families {
		c += shardUnit{idxs: idxs, family: true}.cost()
	}
	for range p.Rest {
		c += shardUnit{}.cost()
	}
	return c
}

// shardUnit is the indivisible (or, for families, divisible) scheduling
// unit PartitionShards balances: either one family's lane set or one
// reference-simulated configuration.
type shardUnit struct {
	idxs   []int
	family bool
}

// cost estimates the unit's per-access simulation work.  A family pays
// one shared tag probe plus one lane update per member; a reference
// cache pays the full probe-and-fill path on its own.
func (u shardUnit) cost() int {
	if u.family {
		return 2 + len(u.idxs)
	}
	return 3
}

// PartitionShards splits cfgs across at most shards single-pass
// workers, balancing estimated per-access cost.  The units of work are
// Group's families and one reference cache per configuration in its
// rest.  Families are the preferred unit -- their lanes share one tag
// probe, so keeping them together is cheapest -- but when there are
// fewer units than shards, the largest families are split in two (any
// subset of a family is itself a valid family: lane state is private,
// so membership never affects results, and a subset needs no more lane
// bits), trading shared probes for parallelism.  The partition is
// deterministic, covers every index exactly once, and returns only
// non-empty plans, so the result may have fewer than shards entries.
func PartitionShards(cfgs []cache.Config, shards int) []ShardPlan {
	if shards < 1 {
		shards = 1
	}
	families, rest := Group(cfgs)
	units := make([]shardUnit, 0, len(families)+len(rest))
	for _, idxs := range families {
		units = append(units, shardUnit{idxs: idxs, family: true})
	}
	for _, k := range rest {
		units = append(units, shardUnit{idxs: []int{k}})
	}

	// Fill idle shards by halving the widest families until every shard
	// has a unit or nothing divisible remains.
	for len(units) < shards {
		widest := -1
		for i, u := range units {
			if u.family && len(u.idxs) >= 2 &&
				(widest < 0 || len(u.idxs) > len(units[widest].idxs)) {
				widest = i
			}
		}
		if widest < 0 {
			break
		}
		u := units[widest]
		mid := len(u.idxs) / 2
		units[widest] = shardUnit{idxs: u.idxs[:mid], family: true}
		units = append(units, shardUnit{idxs: u.idxs[mid:], family: true})
	}

	// More shards than units would only be dropped below as empty plans.
	shards = min(shards, len(units))

	// Longest-processing-time greedy: heaviest units first, each to the
	// least-loaded shard.  Ties break on lowest first index and lowest
	// shard number, keeping the plan deterministic.
	sort.SliceStable(units, func(i, j int) bool {
		if ci, cj := units[i].cost(), units[j].cost(); ci != cj {
			return ci > cj
		}
		return units[i].idxs[0] < units[j].idxs[0]
	})
	plans := make([]ShardPlan, shards)
	loads := make([]int, shards)
	for _, u := range units {
		best := 0
		for s := 1; s < shards; s++ {
			if loads[s] < loads[best] {
				best = s
			}
		}
		loads[best] += u.cost()
		if u.family {
			plans[best].Families = append(plans[best].Families, u.idxs)
		} else {
			plans[best].Rest = append(plans[best].Rest, u.idxs[0])
		}
	}
	out := plans[:0]
	for _, p := range plans {
		if len(p.Families) > 0 || len(p.Rest) > 0 {
			out = append(out, p)
		}
	}
	return out
}
