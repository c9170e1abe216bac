package engine

import (
	"reflect"
	"testing"

	"monsoon/internal/expr"
	"monsoon/internal/obs"
	"monsoon/internal/plan"
	"monsoon/internal/query"
	"monsoon/internal/table"
	"monsoon/internal/value"
)

// TestPairKernelTwoSidedResiduals runs joins that test both children through
// non-identity UDFs — a HashMod join predicate, which the hash join makes a
// key part, and a selection whose one term spans both aliases, which stays a
// two-sided residual — on the hash probe (both build sides) and on the
// nested loop. Every batch size, worker count and shard count must
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

// multiKeyFixture holds a probe table ML and a build table MR whose first
// column MR.k is the shard column. The secondary key columns hold NULLs on
// both sides, and MR.x holds Floats against ML.x's Ints: integral ones that
// must match, and halves that never do.
func multiKeyFixture() *table.Catalog {
	cat := table.NewCatalog()
	lb := table.NewBuilder("ML", table.NewSchema(
		table.Column{Table: "ML", Name: "a", Kind: value.KindInt},
		table.Column{Table: "ML", Name: "x", Kind: value.KindInt},
		table.Column{Table: "ML", Name: "y", Kind: value.KindInt},
	))
	for i := 0; i < 4500; i++ {
		x := value.Int(int64(i % 5))
		if i%11 == 4 {
			x = value.Null()
		}
		lb.Add(value.Int(int64(i%700)), x, value.Int(int64(i%3)))
	}
	cat.Put(lb.Build())
	rb := table.NewBuilder("MR", table.NewSchema(
		table.Column{Table: "MR", Name: "k", Kind: value.KindInt},
		table.Column{Table: "MR", Name: "x", Kind: value.KindFloat},
		table.Column{Table: "MR", Name: "y", Kind: value.KindInt},
	))
	for i := 0; i < 4200; i++ {
		k := value.Int(int64(i % 700))
		if i%97 == 5 {
			k = value.Null()
		}
		x := value.Float(float64(i % 5))
		switch {
		case i%13 == 0:
			x = value.Float(float64(i%5) + 0.5)
		case i%17 == 2:
			x = value.Null()
		}
		rb.Add(k, x, value.Int(int64(i%4)))
	}
	cat.Put(rb.Build())
	return cat
}

// nestedLoopRef joins a two-leaf tree the slow way: each leaf's stored rows
// through its own selections, then every remaining predicate tested on every
// pair, outer rows in order and inner rows ascending — the order a hash join
// emits. It returns the rows, the per-node counts and the tuples produced.
func nestedLoopRef(cat *table.Catalog, q *query.Query, tree *plan.Node) ([]table.Row, map[string]float64, float64) {
	scan := func(n *plan.Node) ([]table.Row, *table.Schema) {
		tbl, _ := q.TableOf(n.Leaf.Alias())
		base := cat.MustGet(tbl).Renamed(n.Leaf.Alias())
		var rows []table.Row
		for _, row := range base.Rows {
			keep := true
			for _, s := range q.SelsAt(n.Leaf) {
				b, _ := s.T.Fn.Bind(base.Schema)
				keep = keep && b.Eval(row).Equal(s.Const)
			}
			if keep {
				rows = append(rows, row)
			}
		}
		return rows, base.Schema
	}
	lrows, ls := scan(tree.Left)
	rrows, rs := scan(tree.Right)
	out := ls.Concat(rs)
	var lhs, rhs []*expr.Binding
	var want []value.Value
	for _, p := range q.PredsNewAt(tree.Left.Aliases(), tree.Right.Aliases()) {
		lb, _ := p.L.Fn.Bind(out)
		rb, _ := p.R.Fn.Bind(out)
		lhs, rhs, want = append(lhs, lb), append(rhs, rb), append(want, value.Value{})
	}
	for _, s := range q.SelsNewAt(tree.Left.Aliases(), tree.Right.Aliases()) {
		b, _ := s.T.Fn.Bind(out)
		lhs, rhs, want = append(lhs, b), append(rhs, nil), append(want, s.Const)
	}
	var rows []table.Row
	for _, l := range lrows {
	pairs:
		for _, r := range rrows {
			for i, b := range lhs {
				w := want[i]
				if rhs[i] != nil {
					w = rhs[i].EvalPair(l, r)
				}
				if !b.EvalPair(l, r).Equal(w) {
					continue pairs
				}
			}
			rows = append(rows, append(append(table.Row{}, l...), r...))
		}
	}
	counts := map[string]float64{
		tree.Left.Key(): float64(len(lrows)), tree.Right.Key(): float64(len(rrows)), tree.Key(): float64(len(rows)),
	}
	return rows, counts, float64(len(lrows) + len(rrows) + len(rows))
}

// TestMultiKeyJoinMatchesNestedLoop checks hash joins keyed on two and three
// cross-child equi-predicates against the nested-loop reference: identity
// and HashMod parts, a swapped predicate, NULL secondary parts, Ints against
// equal Floats. At S > 1 the cases take the zero-copy co-partitioned build,
// the filtered shard-local build and the reshuffled build.
func TestMultiKeyJoinMatchesNestedLoop(t *testing.T) {
	copart := query.NewBuilder("mk-copart").Rel("ML", "ML").Rel("MR", "MR").
		Join(expr.Identity("ML.a"), expr.Identity("MR.k")).
		Join(expr.Identity("MR.x"), expr.Identity("ML.x")).
		Join(expr.HashMod("ML.y", 2), expr.HashMod("MR.y", 2)).
		MustBuild()
	filtered := query.NewBuilder("mk-filtered").Rel("ML", "ML").Rel("MR", "MR").
		Join(expr.Identity("ML.a"), expr.Identity("MR.k")).
		Join(expr.Identity("ML.x"), expr.Identity("MR.x")).
		Select(expr.HashMod("MR.y", 2), value.Int(1)).
		Select(expr.SumMod("ML.y", "MR.y", 2), value.Int(0)).
		MustBuild()
	reshuffle := query.NewBuilder("mk-reshuffle").Rel("ML", "ML").Rel("MR", "MR").
		Join(expr.HashMod("ML.a", 50), expr.HashMod("MR.k", 50)).
		Join(expr.Identity("ML.x"), expr.Identity("MR.x")).
		Join(expr.Identity("ML.y"), expr.Identity("MR.y")).
		MustBuild()
	for _, q := range []*query.Query{copart, filtered, reshuffle} {
		tree := plan.NewJoin(leaf(q, "ML"), leaf(q, "MR"))
		refRows, refCounts, refProduced := nestedLoopRef(multiKeyFixture(), q, tree)
		if len(refRows) == 0 {
			t.Fatalf("%s: the reference join is empty; the test would prove nothing", q.Name)
		}
		for _, s := range []int{1, 2, 4} {
			for _, batch := range []int{1, 7, 4096} {
				for _, par := range []int{1, 3} {
					cat := multiKeyFixture()
					cat.Shard(s)
					rel, res, produced := execAt(t, cat, q, tree, batch, par)
					if !reflect.DeepEqual(rel.Rows, refRows) {
						t.Errorf("%s S=%d batch=%d par=%d: %d rows, reference %d, or order differs",
							q.Name, s, batch, par, rel.Count(), len(refRows))
					}
					if !reflect.DeepEqual(res.Counts, refCounts) || res.Produced != refProduced || produced != refProduced {
						t.Errorf("%s S=%d batch=%d par=%d: accounting %v/%v/%v, reference %v/%v",
							q.Name, s, batch, par, res.Counts, res.Produced, produced, refCounts, refProduced)
					}
				}
			}
		}
	}
}

// probeKernel builds a hash-join kernel over 4000 build rows (k, 10k) keyed
// on k = 0..3999, probed by one-column outer rows on their only column.
func probeKernel(t *testing.T) *pairKernel {
	t.Helper()
	bs := table.NewSchema(table.Column{Table: "B", Name: "k", Kind: value.KindInt},
		table.Column{Table: "B", Name: "v", Kind: value.KindInt})
	build := make([]table.Row, 4000)
	for i := range build {
		build[i] = table.Row{value.Int(int64(i)), value.Int(int64(10 * i))}
	}
	bk, ok1 := expr.Identity("B.k").Bind(bs)
	pk, ok2 := expr.Identity("P.a").Bind(table.NewSchema(table.Column{Table: "P", Name: "a", Kind: value.KindInt}))
	if !ok1 || !ok2 {
		t.Fatal("key not bindable")
	}
	ht, _, err := buildTable(build, nil, []*expr.Binding{bk}, 1, &Budget{}, 1, (&Exec{}).runner(obs.KHashBuild, nil))
	if err != nil {
		t.Fatal(err)
	}
	return &pairKernel{inner: build, ht: ht, pb: []*expr.Binding{pk}, key: make([]value.Value, 1), m: meter{b: &Budget{}}}
}

// probeBatch is a 4096-row outer batch whose first matched rows find a build
// row and whose others find none.
func probeBatch(matched int) []table.Row {
	batch := make([]table.Row, 4096)
	for i := range batch {
		v := int64(i)
		if i >= matched {
			v = -1 - v
		}
		batch[i] = table.Row{value.Int(v)}
	}
	return batch
}

// TestProbeAllocsPerBatch: a probe batch allocates a fixed number of objects
// — the emitted slab and row slice, and the call's bookkeeping — however
// many rows it joins.
func TestProbeAllocsPerBatch(t *testing.T) {
	k := probeKernel(t)
	run := (&Exec{}).runner(obs.KHashProbe, nil)
	allocs := func(matched int) float64 {
		batch := probeBatch(matched)
		return testing.AllocsPerRun(20, func() {
			out, in, err := k.run(batch, 1, run)
			if err != nil || in != len(batch) || len(out) != matched {
				t.Fatalf("matched %d: %d rows, %d in, err %v", matched, len(out), in, err)
			}
		})
	}
	if few, many := allocs(10), allocs(4000); few != many {
		t.Errorf("a 4096-row probe batch allocates %v objects for 10 matches but %v for 4000", few, many)
	}
}

// TestEmittedRowsAreCapped: joined rows share one slab, yet appending to one
// leaves its neighbour intact.
func TestEmittedRowsAreCapped(t *testing.T) {
	k := probeKernel(t)
	out, _, err := k.run(probeBatch(3), 1, (&Exec{}).runner(obs.KHashProbe, nil))
	if err != nil || len(out) != 3 {
		t.Fatalf("%d rows, err %v; want 3", len(out), err)
	}
	want := table.Row{value.Int(1), value.Int(1), value.Int(10)}
	if !reflect.DeepEqual(out[1], want) {
		t.Fatalf("row 1 = %v, want %v", out[1], want)
	}
	grown := append(out[0], value.String("appended"))
	if len(grown) != 4 || !reflect.DeepEqual(out[1], want) {
		t.Errorf("appending to row 0 changed row 1 to %v", out[1])
	}
}
