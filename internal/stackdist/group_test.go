package stackdist_test

import (
	"testing"

	"subcache/internal/cache"
	"subcache/internal/stackdist"
)

// groupConfigs is a mixed grid: two stack groups (block 16 and block
// 32) plus configurations stack analysis must refuse.
func groupConfigs() []cache.Config {
	cfgs := groupLanes(cache.Config{BlockSize: 16, WordSize: 2},
		[]int{256, 1024}, []int{2, 4}, []int{4, 16})
	cfgs = append(cfgs, groupLanes(cache.Config{BlockSize: 32, WordSize: 2},
		[]int{512}, []int{4}, []int{8, 32})...)
	fifo := cfgs[0]
	fifo.Replacement = cache.FIFO
	prefetch := cfgs[1]
	prefetch.PrefetchOBL = true
	return append(cfgs, fifo, prefetch)
}

// TestGroupCoverage: every Supported index sits in exactly one group,
// every member of a group shares its Key and no two groups share one,
// and every other index is in rest -- so each group is a valid
// NewEngine configuration list and no configuration is dropped.
func TestGroupCoverage(t *testing.T) {
	cfgs := groupConfigs()
	groups, rest := stackdist.Group(cfgs)
	if len(groups) != 2 {
		t.Errorf("%d groups, want 2 (block 16 and block 32)", len(groups))
	}
	where := map[int]int{} // config index -> group
	keys := map[cache.Config]int{}
	for gi, idxs := range groups {
		if len(idxs) == 0 {
			t.Errorf("group %d is empty", gi)
			continue
		}
		key := stackdist.Key(cfgs[idxs[0]])
		if other, ok := keys[key]; ok {
			t.Errorf("groups %d and %d share a key", other, gi)
		}
		keys[key] = gi
		for _, k := range idxs {
			if other, ok := where[k]; ok {
				t.Errorf("index %d in groups %d and %d", k, other, gi)
			}
			where[k] = gi
			if err := stackdist.Supported(cfgs[k]); err != nil {
				t.Errorf("unsupported config %d grouped: %v", k, err)
			}
			if stackdist.Key(cfgs[k]) != key {
				t.Errorf("index %d's key differs from group %d's", k, gi)
			}
		}
		cfgsOf := make([]cache.Config, len(idxs))
		for j, k := range idxs {
			cfgsOf[j] = cfgs[k]
		}
		if _, err := stackdist.NewEngine(cfgsOf, 1, 0); err != nil {
			t.Errorf("group %d: NewEngine: %v", gi, err)
		}
	}
	inRest := map[int]bool{}
	for _, k := range rest {
		if inRest[k] {
			t.Errorf("index %d twice in rest", k)
		}
		inRest[k] = true
		if stackdist.Supported(cfgs[k]) == nil {
			t.Errorf("supported config %d in rest", k)
		}
	}
	for i, cfg := range cfgs {
		_, grouped := where[i]
		if supported := stackdist.Supported(cfg) == nil; grouped != supported || inRest[i] == supported {
			t.Errorf("index %d: grouped=%v in rest=%v supported=%v", i, grouped, inRest[i], supported)
		}
	}
}
