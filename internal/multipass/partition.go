package multipass

import (
	"fmt"
	"sort"

	"subcache/internal/cache"
)

// ShardPlan is one shard worker's slice of a configuration set.
// Bundles lists its multipass bundles (see NewBundle): each is a list
// of families, and each family a list of indexes into the partitioned
// configuration slice, formed by Group or a part of one.  Rest lists
// the indexes that need the reference simulator.  A plan set produced
// by PartitionShards covers every input index exactly once across all
// shards.
type ShardPlan struct {
	Bundles [][][]int
	Rest    []int
}

// Cost is the partitioner's estimated per-access simulation cost of the
// whole plan -- the load PartitionShards balanced.  Exposed so the
// telemetry layer can report estimated versus observed shard load.
func (p ShardPlan) Cost() int {
	c := 0
	for _, fams := range p.Bundles {
		c += shardUnit{fams: fams}.cost()
	}
	for range p.Rest {
		c += shardUnit{}.cost()
	}
	return c
}

// shardUnit is the scheduling unit PartitionShards balances: either one
// bundle's families, which it may divide, or one reference-simulated
// configuration (fams nil, rest its index).
type shardUnit struct {
	fams [][]int
	rest int
}

// cost estimates the unit's per-access simulation work.  A reference
// cache pays the full probe-and-fill path on its own (3).  A bundle
// pays one fold (2), and each of its families one probe of the folded
// runs (1) plus one lane update per member.  A run is cheaper to probe
// than a reference because it holds several: over each architecture's
// Table 7 suite at 100k references, the same-block runs of 256-reference
// pieces hold 1.00-2.17 references on PDP-11, 1.00-2.51 on Z8000,
// 1.05-1.68 on VAX-11 and 1.00-1.22 on System/370, by block size
// (BenchmarkTable7Bundles).
func (u shardUnit) cost() int {
	if u.fams == nil {
		return 3
	}
	c := 2
	for _, idxs := range u.fams {
		c += 1 + len(idxs)
	}
	return c
}

// first is the unit's lowest-order configuration index, its tie-break.
func (u shardUnit) first() int {
	if u.fams == nil {
		return u.rest
	}
	return u.fams[0][0]
}

// bundleGroups gathers Group's families into bundles: the families that
// share a block size, a word size and a lane layout (the sub-block
// sizes of their lanes, in order), in first-appearance order.
func bundleGroups(cfgs []cache.Config, families [][]int) [][][]int {
	var bundles [][][]int
	at := make(map[string]int)
	for _, idxs := range families {
		key := fmt.Sprint(cfgs[idxs[0]].BlockSize, cfgs[idxs[0]].WordSize)
		for _, k := range idxs {
			key += fmt.Sprint(",", cfgs[k].SubBlockSize)
		}
		bi, ok := at[key]
		if !ok {
			bi = len(bundles)
			at[key] = bi
			bundles = append(bundles, nil)
		}
		bundles[bi] = append(bundles[bi], idxs)
	}
	return bundles
}

// PartitionShards splits cfgs across at most shards single-pass
// workers, balancing estimated per-access cost.  The units of work are
// bundles of Group's families (bundleGroups) and one reference cache
// per configuration in its rest.  Bundles are the preferred unit --
// their families share one fold of the trace, and a family's lanes one
// tag probe -- but when there are fewer units than shards, the costliest
// bundle of several families is split in two, and only when every
// bundle is down to one family is the widest family halved (any subset
// of a family is itself a valid family: lane state is private, so
// membership never affects results, and a subset needs no more lane
// bits).  Each split trades shared work for parallelism.  The partition
// is deterministic, covers every index exactly once, and returns only
// non-empty plans, so the result may have fewer than shards entries.
func PartitionShards(cfgs []cache.Config, shards int) []ShardPlan {
	if shards < 1 {
		shards = 1
	}
	families, rest := Group(cfgs)
	bundles := bundleGroups(cfgs, families)
	units := make([]shardUnit, 0, len(bundles)+len(rest))
	for _, fams := range bundles {
		units = append(units, shardUnit{fams: fams})
	}
	for _, k := range rest {
		units = append(units, shardUnit{rest: k})
	}

	// Fill idle shards by splitting bundles, then halving families,
	// until every shard has a unit or nothing divisible remains.
	for len(units) < shards {
		i := splittable(units)
		if i < 0 {
			break
		}
		u := units[i]
		if len(u.fams) >= 2 {
			mid := len(u.fams) / 2
			units[i] = shardUnit{fams: u.fams[:mid]}
			units = append(units, shardUnit{fams: u.fams[mid:]})
			continue
		}
		idxs := u.fams[0]
		mid := len(idxs) / 2
		units[i] = shardUnit{fams: [][]int{idxs[:mid]}}
		units = append(units, shardUnit{fams: [][]int{idxs[mid:]}})
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
		return units[i].first() < units[j].first()
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
		if u.fams != nil {
			plans[best].Bundles = append(plans[best].Bundles, u.fams)
		} else {
			plans[best].Rest = append(plans[best].Rest, u.rest)
		}
	}
	out := plans[:0]
	for _, p := range plans {
		if len(p.Bundles) > 0 || len(p.Rest) > 0 {
			out = append(out, p)
		}
	}
	return out
}

// splittable picks the unit PartitionShards divides next: the costliest
// bundle of several families, else the widest family of at least two
// lanes; ties go to the earlier unit.  It returns -1 when no unit is
// divisible.
func splittable(units []shardUnit) int {
	best := -1
	for i, u := range units {
		if len(u.fams) >= 2 && (best < 0 || u.cost() > units[best].cost()) {
			best = i
		}
	}
	if best >= 0 {
		return best
	}
	for i, u := range units {
		if len(u.fams) == 1 && len(u.fams[0]) >= 2 &&
			(best < 0 || len(u.fams[0]) > len(units[best].fams[0])) {
			best = i
		}
	}
	return best
}
