package engine

import (
	"reflect"
	"testing"

	"monsoon/internal/expr"
	"monsoon/internal/plan"
	"monsoon/internal/query"
	"monsoon/internal/table"
	"monsoon/internal/value"
)

// TestPairKernelTwoSidedResiduals runs joins whose residuals read both
// children through non-identity UDFs — a second join predicate and a
// selection whose one term spans both aliases — on the hash probe (both
// build sides) and on the nested loop. Every batch size, worker count and shard count must
// give the serial, batch 4096, S=1 run's rows, counts and charges exactly.
func TestPairKernelTwoSidedResiduals(t *testing.T) {
	hashQ := query.NewBuilder("pair-hash").
		Rel("BR", "BR").Rel("BS", "BS").
		Join(expr.Identity("BR.a"), expr.Identity("BS.k")).
		Join(expr.HashMod("BR.b", 2), expr.HashMod("BS.k", 2)).
		Select(expr.SumMod("BS.k", "BR.b", 3), value.Int(1)).
		MustBuild()
	loopQ := query.NewBuilder("pair-loop").
		Rel("CL", "CL").Rel("CR", "CR").
		Select(expr.SumMod("CR.b", "CL.a", 7), value.Int(3)).
		MustBuild()
	cases := []struct {
		name string
		cat  func() *table.Catalog
		q    *query.Query
		tree *plan.Node
	}{
		{"probe", bigFixture, hashQ, plan.NewJoin(leaf(hashQ, "BR"), leaf(hashQ, "BS"))},
		{"probe-swapped", bigFixture, hashQ, plan.NewJoin(leaf(hashQ, "BS"), leaf(hashQ, "BR"))},
		{"nested-loop", func() *table.Catalog { return crossFixture(600, 40) }, loopQ,
			plan.NewJoin(leaf(loopQ, "CL"), leaf(loopQ, "CR"))},
	}
	for _, tc := range cases {
		refRel, refRes, refProduced := execAt(t, tc.cat(), tc.q, tc.tree, 4096, 1)
		if refRel.Count() == 0 {
			t.Fatalf("%s: the residuals reject every pair; the test would prove nothing", tc.name)
		}
		for _, s := range []int{1, 2, 4} {
			for _, batch := range []int{1, 7, 4096} {
				for _, par := range []int{1, 3} {
					cat := tc.cat()
					cat.Shard(s)
					rel, res, produced := execAt(t, cat, tc.q, tc.tree, batch, par)
					if !reflect.DeepEqual(rel.Rows, refRel.Rows) {
						t.Errorf("%s S=%d batch=%d par=%d: %d rows, reference %d, or order differs",
							tc.name, s, batch, par, rel.Count(), refRel.Count())
					}
					if !reflect.DeepEqual(res.Counts, refRes.Counts) || res.Produced != refRes.Produced || produced != refProduced {
						t.Errorf("%s S=%d batch=%d par=%d: accounting %v/%v/%v, reference %v/%v/%v",
							tc.name, s, batch, par, res.Counts, res.Produced, produced,
							refRes.Counts, refRes.Produced, refProduced)
					}
				}
			}
		}
	}
}
