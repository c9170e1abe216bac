// Package ott builds the correlated Optimizer Torture Tests of Wu et al.
// (§6.2.2, Table 6), following the construction the paper summarizes: a
// TPC-H database augmented with two extra correlated columns per table, and
// a suite of 20 queries whose final result is empty — the pair of correlated
// predicates can never hold jointly across tables — while bad join orders
// generate enormous intermediates.
//
// Construction. Every augmented table gets columns x and y with
// y = (x + rank) mod D, where rank is distinct per table and x is drawn from
// a Zipf distribution over [0, D). A cross-table predicate pair
// (a.x = b.x AND a.y = b.y) therefore selects nothing, while a single-column
// predicate (a.x = b.x) is a skewed low-selectivity join whose true size far
// exceeds the |a||b|/D independence estimate — exactly the failure mode the
// torture tests target: optimizers that do not know the correlation defer
// the empty join and drown in the skewed fat ones.
package ott

import (
	"fmt"

	"monsoon/internal/bench/tpch"
	"monsoon/internal/expr"
	"monsoon/internal/plan"
	"monsoon/internal/query"
	"monsoon/internal/randx"
	"monsoon/internal/table"
	"monsoon/internal/value"
)

// Config parameterizes OTT generation.
type Config struct {
	// ScaleFactor is passed to the underlying TPC-H generator.
	ScaleFactor float64
	// Domain is D, the domain size of the correlated columns; default 100.
	Domain int64
	// Skew is the Zipf exponent of the x column; default 1.2.
	Skew float64
	// Seed makes generation reproducible.
	Seed int64
}

// augmented lists the tables that receive x/y columns, in rank order.
var augmented = []string{"customer", "orders", "lineitem", "supplier", "partsupp", "part"}

// Generate builds the TPC-H catalog and augments it with the correlated
// columns.
func Generate(cfg Config) *table.Catalog {
	if cfg.Domain == 0 {
		cfg.Domain = 100
	}
	if cfg.Skew == 0 {
		cfg.Skew = 1.2
	}
	cat := tpch.Generate(tpch.Config{ScaleFactor: cfg.ScaleFactor, Seed: cfg.Seed})
	rng := randx.New(randx.Derive(cfg.Seed, "ott"))
	z := randx.NewZipf(cfg.Domain, cfg.Skew)
	for rank, name := range augmented {
		src := cat.MustGet(name)
		cols := append(append([]table.Column{}, src.Schema.Cols...),
			table.Column{Table: name, Name: "x", Kind: value.KindInt},
			table.Column{Table: name, Name: "y", Kind: value.KindInt},
		)
		b := table.NewBuilder(name, table.NewSchema(cols...))
		for _, row := range src.Rows {
			x := z.Draw(rng) - 1
			y := (x + int64(rank)) % cfg.Domain
			vals := append(append(table.Row{}, row...), value.Int(x), value.Int(y))
			b.Add(vals...)
		}
		cat.Put(b.Build())
	}
	return cat
}

// Case is one torture query with its hand-written best left-deep plan (the
// Table 6 "Hand-written" row: evaluate the empty correlated pair first).
type Case struct {
	Query *query.Query
	Best  *plan.Node
}

// chainSpec describes one query: a chain of tables where the first edge is
// the empty (x AND y) pair and the rest join on one correlated column only.
type chainSpec struct {
	tables  []string // chain order; edge 0-1 is the empty pair
	fatCols []string // column ("x" or "y") for each subsequent edge
}

// Queries builds the 20-case suite. The empty edge always connects the two
// largest tables of the chain, so size-guided heuristics are drawn away from
// it; fat edges alternate x and y.
func Queries() []Case {
	specs := []chainSpec{
		{[]string{"orders", "lineitem", "customer"}, []string{"x"}},
		{[]string{"orders", "lineitem", "supplier"}, []string{"y"}},
		{[]string{"orders", "lineitem", "part"}, []string{"x"}},
		{[]string{"orders", "lineitem", "partsupp"}, []string{"y"}},
		{[]string{"customer", "orders", "supplier"}, []string{"x"}},
		{[]string{"customer", "orders", "part"}, []string{"y"}},
		{[]string{"partsupp", "lineitem", "customer"}, []string{"x"}},
		{[]string{"partsupp", "lineitem", "supplier"}, []string{"y"}},
		{[]string{"part", "partsupp", "customer"}, []string{"x"}},
		{[]string{"part", "lineitem", "supplier"}, []string{"x"}},
		{[]string{"orders", "lineitem", "customer", "supplier"}, []string{"x", "y"}},
		{[]string{"orders", "lineitem", "part", "customer"}, []string{"y", "x"}},
		{[]string{"orders", "lineitem", "partsupp", "supplier"}, []string{"x", "y"}},
		{[]string{"customer", "orders", "supplier", "part"}, []string{"x", "y"}},
		{[]string{"partsupp", "lineitem", "customer", "part"}, []string{"y", "x"}},
		{[]string{"part", "partsupp", "supplier", "customer"}, []string{"x", "y"}},
		{[]string{"orders", "lineitem", "customer", "supplier", "part"}, []string{"x", "y", "x"}},
		{[]string{"orders", "lineitem", "part", "partsupp", "customer"}, []string{"y", "x", "y"}},
		{[]string{"customer", "orders", "supplier", "partsupp", "part"}, []string{"x", "y", "x"}},
		{[]string{"partsupp", "lineitem", "customer", "orders"}, []string{"x", "y"}},
	}
	out := make([]Case, 0, len(specs))
	for i, spec := range specs {
		out = append(out, buildCase(fmt.Sprintf("ott-q%02d", i+1), spec))
	}
	return out
}

// alias derives a short alias per table occurrence (tables are distinct
// within each chain).
func alias(tbl string) string {
	switch tbl {
	case "customer":
		return "c"
	case "orders":
		return "o"
	case "lineitem":
		return "l"
	case "supplier":
		return "s"
	case "partsupp":
		return "ps"
	case "part":
		return "p"
	default:
		return tbl
	}
}

func buildCase(name string, spec chainSpec) Case {
	id := expr.Identity
	b := query.NewBuilder(name)
	for _, t := range spec.tables {
		b.Rel(alias(t), t)
	}
	a0, a1 := alias(spec.tables[0]), alias(spec.tables[1])
	// The empty correlated pair.
	b.Join(id(a0+".x"), id(a1+".x"))
	b.Join(id(a0+".y"), id(a1+".y"))
	// Fat single-column edges along the rest of the chain.
	for i := 2; i < len(spec.tables); i++ {
		colName := spec.fatCols[i-2]
		b.Join(id(alias(spec.tables[i-1])+"."+colName), id(alias(spec.tables[i])+"."+colName))
	}
	q := b.MustBuild()
	// Hand-written best plan: the empty pair first, then the chain order.
	leaves := make([]query.AliasSet, len(spec.tables))
	for i, t := range spec.tables {
		leaves[i] = q.Set(alias(t))
	}
	return Case{Query: q, Best: plan.LeftDeep(leaves)}
}
