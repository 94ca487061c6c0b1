package multipass

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"subcache/internal/cache"
)

// partitionCfg builds a Table 7 grid configuration, in the kernel's
// class.
func partitionCfg(net, block, sub int) cache.Config {
	assoc := 4
	if frames := net / block; frames < assoc {
		assoc = frames
	}
	return cache.Config{
		NetSize: net, BlockSize: block, SubBlockSize: sub,
		Assoc: assoc, WordSize: 2,
		Replacement: cache.LRU, Write: cache.WriteAllocate,
	}
}

// partitionSuite is a representative mix: three families of different
// widths plus two fallback configurations (OBL prefetch and
// write-no-allocate).
func partitionSuite() []cache.Config {
	var cfgs []cache.Config
	for _, sub := range []int{2, 4, 8, 16} {
		cfgs = append(cfgs, partitionCfg(256, 16, sub))
	}
	for _, sub := range []int{2, 4} {
		cfgs = append(cfgs, partitionCfg(64, 8, sub))
	}
	cfgs = append(cfgs, partitionCfg(1024, 32, 8))
	obl := partitionCfg(256, 16, 8)
	obl.PrefetchOBL = true
	cfgs = append(cfgs, obl)
	wna := partitionCfg(64, 8, 2)
	wna.Write = cache.WriteNoAllocate
	cfgs = append(cfgs, wna)
	return cfgs
}

// TestPartitionCoversEveryIndex: every shard count yields plans that
// cover each configuration index exactly once, with no empty plans and
// never more plans than shards.
func TestPartitionCoversEveryIndex(t *testing.T) {
	cfgs := partitionSuite()
	for shards := -1; shards <= len(cfgs)+4; shards++ {
		plans := PartitionShards(cfgs, shards)
		if shards >= 1 && len(plans) > shards {
			t.Fatalf("shards=%d: got %d plans", shards, len(plans))
		}
		seen := make(map[int]int)
		for pi, plan := range plans {
			if len(plan.Bundles) == 0 && len(plan.Rest) == 0 {
				t.Errorf("shards=%d: plan %d is empty", shards, pi)
			}
			for _, fam := range planFamilies(plan) {
				if len(fam) == 0 {
					t.Errorf("shards=%d: plan %d has an empty family", shards, pi)
				}
				for _, k := range fam {
					seen[k]++
				}
			}
			for _, k := range plan.Rest {
				seen[k]++
			}
		}
		for i := range cfgs {
			if seen[i] != 1 {
				t.Fatalf("shards=%d: index %d assigned %d times", shards, i, seen[i])
			}
		}
	}
}

// planFamilies lists a plan's families, bundle by bundle.
func planFamilies(plan ShardPlan) [][]int {
	var fams [][]int
	for _, b := range plan.Bundles {
		fams = append(fams, b...)
	}
	return fams
}

// TestPartitionFamilyInvariants: every planned family must be a real
// single-pass family -- all members in the kernel's class and sharing
// one FamilyKey -- every planned bundle one NewBundle accepts, and
// every Rest index a configuration the kernel cannot host.
func TestPartitionFamilyInvariants(t *testing.T) {
	cfgs := append(partitionSuite(), partitionCfg(1024, 16, 2), partitionCfg(1024, 16, 4),
		partitionCfg(64, 16, 2), partitionCfg(64, 16, 4), partitionCfg(64, 16, 8), partitionCfg(64, 16, 16))
	for _, shards := range []int{1, 2, 3, len(cfgs) + 4} {
		plans := PartitionShards(cfgs, shards)
		for _, plan := range plans {
			for _, b := range plan.Bundles {
				fams := make([][]cache.Config, len(b))
				for i, fam := range b {
					fams[i] = pick(cfgs, fam)
				}
				if _, err := NewBundle(fams); err != nil {
					t.Errorf("shards=%d: bundle %v: %v", shards, b, err)
				}
			}
			for _, fam := range planFamilies(plan) {
				key := cfgs[fam[0]].FamilyKey()
				for _, k := range fam {
					if !recordClass(cfgs[k]) {
						t.Errorf("shards=%d: config %d outside the kernel's class planned into a family", shards, k)
					}
					if cfgs[k].FamilyKey() != key {
						t.Errorf("shards=%d: family mixes keys at index %d", shards, k)
					}
				}
			}
			for _, k := range plan.Rest {
				if recordClass(cfgs[k]) {
					t.Errorf("shards=%d: config %d of the kernel's class left on the fallback path", shards, k)
				}
			}
		}
	}
}

// TestGroupSplitsAt64Bits: lanes of one key that need more than the 64
// bits of a valid word spill into further families of that key, each
// of at most 64 bits, with every index placed exactly once.
func TestGroupSplitsAt64Bits(t *testing.T) {
	// 64-byte blocks of 2-byte words: the sub-block ladder 64..2 takes
	// 63 bits, so three copies need three families.
	var cfgs []cache.Config
	for rep := 0; rep < 3; rep++ {
		for sub := 64; sub >= 2; sub /= 2 {
			cfgs = append(cfgs, partitionCfg(256, 64, sub))
		}
		cfgs = append(cfgs, partitionCfg(256, 16, 4))
	}
	families, rest := Group(cfgs)
	if len(rest) != 0 {
		t.Fatalf("rest = %v, want none", rest)
	}
	seen := make(map[int]int)
	wide := 0
	for _, fam := range families {
		bits := 0
		for _, k := range fam {
			seen[k]++
			bits += cfgs[k].SubBlocksPerBlock()
		}
		if bits > 64 {
			t.Errorf("family %v needs %d bits", fam, bits)
		}
		if _, err := New(pick(cfgs, fam)); err != nil {
			t.Errorf("family %v: %v", fam, err)
		}
		if cfgs[fam[0]].BlockSize == 64 {
			wide++
		}
	}
	for i := range cfgs {
		if seen[i] != 1 {
			t.Errorf("index %d placed %d times", i, seen[i])
		}
	}
	if wide != 3 || len(families) != 4 {
		t.Errorf("got %d families, %d of 64-byte blocks; want 4 and 3", len(families), wide)
	}
}

// pick returns the configurations at idxs.
func pick(cfgs []cache.Config, idxs []int) []cache.Config {
	out := make([]cache.Config, len(idxs))
	for j, k := range idxs {
		out[j] = cfgs[k]
	}
	return out
}

// TestPartitionSplitsWideFamilies: with more shards than natural units
// the widest families are halved so idle shards get work; the split
// halves still satisfy the family invariants (checked above) because
// any subset of a family is itself a family.
func TestPartitionSplitsWideFamilies(t *testing.T) {
	var cfgs []cache.Config
	for _, sub := range []int{2, 4, 8, 16} {
		cfgs = append(cfgs, partitionCfg(256, 16, sub))
	}
	plans := PartitionShards(cfgs, 2)
	if len(plans) != 2 {
		t.Fatalf("one 4-lane family across 2 shards: got %d plans, want 2", len(plans))
	}
	for pi, plan := range plans {
		if fams := planFamilies(plan); len(plan.Bundles) != 1 || len(fams) != 1 || len(fams[0]) != 2 {
			t.Errorf("plan %d: want one bundle of one 2-lane half-family, got %+v", pi, plan)
		}
	}

	// More shards than lanes: families bottom out at one lane each and
	// the plan count stops growing.
	plans = PartitionShards(cfgs, 16)
	if len(plans) != 4 {
		t.Fatalf("4 lanes across 16 shards: got %d plans, want 4", len(plans))
	}
}

// TestPartitionDeterministic: the plan is a pure function of its
// inputs.
func TestPartitionDeterministic(t *testing.T) {
	cfgs := partitionSuite()
	for _, shards := range []int{1, 3, 7} {
		a := PartitionShards(cfgs, shards)
		b := PartitionShards(cfgs, shards)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("shards=%d: partition is not deterministic", shards)
		}
	}
}

// TestPartitionBalance: with two shards and units of known cost the LPT
// assignment must not put everything on one shard.
func TestPartitionBalance(t *testing.T) {
	cfgs := partitionSuite()
	plans := PartitionShards(cfgs, 2)
	if len(plans) != 2 {
		t.Fatalf("got %d plans, want 2", len(plans))
	}
	a, b := plans[0].Cost(), plans[1].Cost()
	if a == 0 || b == 0 {
		t.Fatalf("degenerate balance: loads %d/%d", a, b)
	}
	if a > 3*b || b > 3*a {
		t.Errorf("poor balance: loads %d/%d", a, b)
	}
}

// table7Cfgs is the PDP-11 Table 7 grid over nets 64, 256 and 1024: 18
// families of six block sizes, so six bundles.
func table7Cfgs() []cache.Config {
	var cfgs []cache.Config
	for _, net := range []int{64, 256, 1024} {
		for block := 64; block >= 2; block /= 2 {
			for sub := min(block, 32); sub >= 2; sub /= 2 {
				if block == 64 && sub > 16 {
					continue
				}
				cfgs = append(cfgs, partitionCfg(net, block, sub))
			}
		}
	}
	return cfgs
}

// TestPartitionKeepsBundlesWhole: the Table 7 grid plans one bundle per
// block size, holding that block size's nets, and while there are at
// least as many bundles as shards each bundle stays whole on one shard.
func TestPartitionKeepsBundlesWhole(t *testing.T) {
	cfgs := table7Cfgs()
	families, _ := Group(cfgs)
	bundles := bundleGroups(cfgs, families)
	if len(families) != 18 || len(bundles) != 6 {
		t.Fatalf("Table 7 grid: %d families in %d bundles, want 18 in 6", len(families), len(bundles))
	}
	for _, b := range bundles {
		block := cfgs[b[0][0]].BlockSize
		nets := map[int]bool{}
		for _, fam := range b {
			if c := cfgs[fam[0]]; c.BlockSize != block || nets[c.NetSize] {
				t.Errorf("bundle %v mixes block sizes or repeats net %d", b, c.NetSize)
			}
			nets[cfgs[fam[0]].NetSize] = true
		}
		if len(nets) != 3 {
			t.Errorf("bundle of %d-byte blocks holds nets %v, want 64, 256 and 1024", block, nets)
		}
	}
	for shards := 1; shards <= len(bundles); shards++ {
		var planned [][][]int
		for _, plan := range PartitionShards(cfgs, shards) {
			planned = append(planned, plan.Bundles...)
		}
		sort.Slice(planned, func(i, j int) bool { return planned[i][0][0] < planned[j][0][0] })
		if !reflect.DeepEqual(planned, bundles) {
			t.Errorf("shards=%d: planned bundles %v, want %v", shards, planned, bundles)
		}
	}
}

// TestPartitionSplitsBundlesFirst: past one shard per bundle, bundles
// are split into their families before any family is halved -- up to
// one shard per family every planned family is one of Group's, whole --
// and only then are families halved.
func TestPartitionSplitsBundlesFirst(t *testing.T) {
	cfgs := table7Cfgs()
	families, _ := Group(cfgs)
	whole := map[string]bool{}
	for _, fam := range families {
		whole[fmt.Sprint(fam)] = true
	}
	for shards := 7; shards <= len(families)+1; shards++ {
		plans := PartitionShards(cfgs, shards)
		if len(plans) != shards {
			t.Fatalf("shards=%d: %d plans", shards, len(plans))
		}
		halved := 0
		for _, plan := range plans {
			for _, fam := range planFamilies(plan) {
				if !whole[fmt.Sprint(fam)] {
					halved++
				}
			}
		}
		want := 0
		if shards > len(families) {
			want = 2 // one family, in two halves
		}
		if halved != want {
			t.Errorf("shards=%d: %d planned families are parts of one, want %d", shards, halved, want)
		}
	}
}
