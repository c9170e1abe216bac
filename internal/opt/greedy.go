package opt

import (
	"fmt"
	"sort"

	"monsoon/internal/plan"
	"monsoon/internal/query"
	"monsoon/internal/stats"
)

// GreedyPlan builds the paper's Greedy baseline (§6.2.2 option 3): a
// left-deep plan built from set sizes only — no distinct-value statistics.
// Starting with the smallest set, it repeatedly joins the next smallest table
// that does not introduce a cross product, taking one only when necessary.
func GreedyPlan(q *query.Query, st *stats.Store) (*plan.Node, error) {
	type rel struct {
		alias string
		size  float64
	}
	var rels []rel
	for _, r := range q.Rels {
		c, ok := st.Count(stats.RawKey(r.Alias))
		if !ok {
			return nil, fmt.Errorf("opt: no raw count for %q", r.Alias)
		}
		rels = append(rels, rel{alias: r.Alias, size: c})
	}
	sort.Slice(rels, func(i, j int) bool {
		if rels[i].size != rels[j].size {
			return rels[i].size < rels[j].size
		}
		return rels[i].alias < rels[j].alias
	})
	cover := q.Set(rels[0].alias)
	tree := plan.NewLeaf(cover)
	remaining := rels[1:]
	for len(remaining) > 0 {
		pick := -1
		for i, r := range remaining { // remaining stays size-sorted
			if q.Connected(cover, q.Set(r.alias)) {
				pick = i
				break
			}
		}
		if pick < 0 {
			pick = 0 // cross product necessary; take the smallest
		}
		next := remaining[pick]
		remaining = append(remaining[:pick], remaining[pick+1:]...)
		tree = plan.NewJoin(tree, plan.NewLeaf(q.Set(next.alias)))
		cover = cover.Union(q.Set(next.alias))
	}
	return tree, nil
}
