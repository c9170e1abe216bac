package engine

import (
	"fmt"
	"testing"

	"monsoon/internal/expr"
	"monsoon/internal/obs"
	"monsoon/internal/plan"
	"monsoon/internal/query"
	"monsoon/internal/table"
	"monsoon/internal/value"
)

// benchCatalog builds the sharding study's shape in miniature: a probe table
// P and a build table B whose first column is the join key (so sharding
// co-partitions the join), with buildPerKey build rows per distinct key.
func benchCatalog(probeRows, buildRows, keys int) *table.Catalog {
	cat := table.NewCatalog()
	ps := table.NewSchema(
		table.Column{Table: "P", Name: "a", Kind: value.KindInt},
		table.Column{Table: "P", Name: "b", Kind: value.KindInt},
	)
	pb := table.NewBuilder("P", ps)
	for i := 0; i < probeRows; i++ {
		pb.Add(value.Int(int64(i%keys)), value.Int(int64(i)))
	}
	cat.Put(pb.Build())
	bs := table.NewSchema(
		table.Column{Table: "B", Name: "k", Kind: value.KindInt},
		table.Column{Table: "B", Name: "v", Kind: value.KindInt},
	)
	bb := table.NewBuilder("B", bs)
	for i := 0; i < buildRows; i++ {
		bb.Add(value.Int(int64(i%keys)), value.Int(int64(i)))
	}
	cat.Put(bb.Build())
	return cat
}

func benchQuery() *query.Query {
	return query.NewBuilder("bench").
		Rel("P", "P").Rel("B", "B").
		Join(expr.Identity("P.a"), expr.Identity("B.k")).
		MustBuild()
}

// BenchmarkCopartHashJoin times the full ExecTree drain of a co-partitioned
// hash join (build key = shard column) across shard counts. S=1 is the
// unsharded baseline; S>1 takes the shard-local scan + zero-exchange build.
func BenchmarkCopartHashJoin(b *testing.B) {
	cat := benchCatalog(150_000, 600_000, 150_000)
	q := benchQuery()
	tree := plan.NewJoin(leaf(q, "P"), leaf(q, "B"))
	for _, s := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("S=%d", s), func(b *testing.B) {
			cat.Shard(s)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := New(cat)
				if _, _, err := e.ExecTree(q, tree, &Budget{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	cat.Shard(1)
}

// BenchmarkShardedBuildOnly isolates the one hash build over the row
// sources and routing rules a join chooses from: one table (the S=1 path),
// hash-routed sub-tables (the reshuffle path), and sub-tables keyed on the
// layout's cached shard-column hashes (the zero-copy co-partitioned path).
func BenchmarkShardedBuildOnly(b *testing.B) {
	const rows, keys, shards, workers = 600_000, 150_000, 16, 8
	cat := benchCatalog(1, rows, keys)
	buildRel := cat.MustGet("B")
	key, _ := expr.Identity("B.k").Bind(buildRel.Schema)
	run := (&Exec{}).runner(obs.KHashBuild, nil)
	cat.Shard(shards)
	sh, _ := cat.ShardsOf("B")
	cat.Shard(1)
	for _, tc := range []struct {
		name    string
		s       int
		rowHash []uint64
	}{
		{"flat", 1, nil},
		{"routed", shards, nil},
		{"shard-local", shards, sh.RowHash},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := buildTable(buildRel.Rows, tc.rowHash, []*expr.Binding{key}, tc.s, &Budget{}, workers, run); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
