package stackdist

import "subcache/internal/cache"

// Group splits cfgs into stack groups -- index lists sharing a Key, all
// Supported -- plus the rest, which need a different engine.  Order is
// deterministic: groups by first appearance, indexes ascending.  Each
// group is one NewEngine's configuration list.
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
