package engine

import (
	"errors"
	"strings"
	"testing"
	"time"

	"monsoon/internal/expr"
	"monsoon/internal/obs"
	"monsoon/internal/plan"
	"monsoon/internal/query"
	"monsoon/internal/table"
	"monsoon/internal/value"
)

// pollFixture holds a left table L of left rows and a right table E of
// right rows, joined on L.a = E.k; both stay below the thousand tuples
// after which a scan's own charge reads the clock, so an expired deadline
// can only be noticed by the operators above the scans.
func pollFixture(left, right int) (*table.Catalog, *query.Query, *plan.Node) {
	cat := table.NewCatalog()
	lb := table.NewBuilder("L", table.NewSchema(table.Column{Table: "L", Name: "a", Kind: value.KindInt}))
	for i := 0; i < left; i++ {
		lb.Add(value.Int(int64(i)))
	}
	cat.Put(lb.Build())
	rb := table.NewBuilder("E", table.NewSchema(table.Column{Table: "E", Name: "k", Kind: value.KindInt}))
	for i := 0; i < right; i++ {
		rb.Add(value.Int(int64(-1 - i)))
	}
	cat.Put(rb.Build())
	q := query.NewBuilder("poll").Rel("L", "L").Rel("E", "E").
		Join(expr.Identity("L.a"), expr.Identity("E.k")).MustBuild()
	return cat, q, plan.NewJoin(leaf(q, "L"), leaf(q, "E"))
}

// failedSpan runs tree under an expired deadline and returns the kind of
// the first operator span that recorded the budget error.
func failedSpan(t *testing.T, cat *table.Catalog, q *query.Query, tree *plan.Node) string {
	t.Helper()
	col := &obs.Collector{}
	e := New(cat)
	e.Parallelism = 1
	e.Obs = obs.NewTracer(col)
	_, _, err := e.ExecTree(q, tree, &Budget{Deadline: time.Now().Add(-time.Second)})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	for _, sp := range col.Spans {
		if sp.Str["err"] != "" && sp.Kind != obs.KJoin && sp.Kind != obs.KMaterialize {
			return sp.Kind
		}
	}
	t.Fatal("no operator span recorded the budget error")
	return ""
}

// TestExpiredDeadlineFailsMatchlessProbe: a probe whose rows all miss
// produces nothing, yet polls the deadline.
func TestExpiredDeadlineFailsMatchlessProbe(t *testing.T) {
	cat, q, tree := pollFixture(500, 0)
	if kind := failedSpan(t, cat, q, tree); kind != obs.KHashProbe {
		t.Errorf("budget error surfaced in %s, want %s", kind, obs.KHashProbe)
	}
}

// TestExpiredDeadlineFailsBuild: a hash build produces nothing, yet polls the
// deadline.
func TestExpiredDeadlineFailsBuild(t *testing.T) {
	cat, q, tree := pollFixture(300, 600)
	if kind := failedSpan(t, cat, q, tree); kind != obs.KHashBuild {
		t.Errorf("budget error surfaced in %s, want %s", kind, obs.KHashBuild)
	}
}

// TestTupleCapOverrunProduced: at one worker the tuple bound trips at the
// same tuple as before deadline polls moved off the shared budget, so an
// overrun reports the same Produced; the values were recorded on the engine
// whose zero charges still went through Budget.Charge. At three workers the
// overrun still surfaces as ErrBudget.
func TestTupleCapOverrunProduced(t *testing.T) {
	q := bigQuery()
	tree := plan.NewJoin(leaf(q, "BR"), leaf(q, "BS"))
	for _, tc := range []struct {
		max      float64
		produced float64
	}{
		{5000, 8192},
		{10000, 10001},
		{20000, 20001},
	} {
		for _, par := range []int{1, 3} {
			e := New(bigFixture())
			e.Parallelism = par
			b := &Budget{MaxTuples: tc.max}
			_, _, err := e.ExecTree(q, tree, b)
			if !errors.Is(err, ErrBudget) {
				t.Fatalf("max %v par %d: err = %v, want ErrBudget", tc.max, par, err)
			}
			if par == 1 && b.Produced() != tc.produced {
				t.Errorf("max %v: produced %v at the overrun, want %v", tc.max, b.Produced(), tc.produced)
			}
		}
	}
}

// TestWorkerPanicBecomesError: a caller's UDF that panics on one value fails
// the query with an error naming the operator, and the process survives —
// inside a fan-out worker and on the inline one-worker path alike, in the
// hash build, the probe, a selection scan and the Σ pass.
func TestWorkerPanicBecomesError(t *testing.T) {
	fragile := &expr.UDF{Name: "fragile", Args: []string{"BR.a"}, Fn: func(args []value.Value) value.Value {
		if args[0].AsInt() == 777 {
			panic("fragile: cannot take 777")
		}
		return args[0]
	}}
	q := query.NewBuilder("fragile").Rel("BR", "BR").Rel("BS", "BS").
		Join(fragile, expr.Identity("BS.k")).MustBuild()
	sel := query.NewBuilder("fragile-sel").Rel("BR", "BR").
		Select(fragile, value.Int(1)).MustBuild()
	for _, tc := range []struct {
		q    *query.Query
		tree *plan.Node
		op   string
	}{
		{q, plan.NewJoin(leaf(q, "BS"), leaf(q, "BR")), obs.KHashBuild},
		{q, plan.NewJoin(leaf(q, "BR"), leaf(q, "BS")), obs.KHashProbe},
		{sel, leaf(sel, "BR"), obs.KScan},
		{q, leaf(q, "BR").WithSigma(), obs.KSigma},
	} {
		for _, par := range []int{1, 3} {
			e := New(bigFixture())
			e.Parallelism = par
			_, _, err := e.ExecTree(tc.q, tc.tree, &Budget{})
			if err == nil || !strings.Contains(err.Error(), tc.op) || !strings.Contains(err.Error(), "cannot take 777") {
				t.Errorf("%s par %d: err = %v, want the recovered panic naming %s", tc.tree, par, err, tc.op)
			}
		}
	}
}
