package query

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"monsoon/internal/expr"
	"monsoon/internal/value"
)

// aliasQuery mounts the given aliases with no predicates.
func aliasQuery(names ...string) *Query {
	b := NewBuilder("aliases")
	for _, n := range names {
		b.Rel(n, n)
	}
	return b.MustBuild()
}

func TestAliasSetBasics(t *testing.T) {
	q := aliasQuery("c", "b", "a", "z")
	s := q.Set("b", "a", "b")
	if s.Key() != "a+b" {
		t.Errorf("Key = %q", s.Key())
	}
	if s.Size() != 2 || !s.Contains("a") || s.Contains("c") || s.Contains("nope") {
		t.Error("membership wrong")
	}
	if !q.Set("a").SubsetOf(s) || s.SubsetOf(q.Set("a")) {
		t.Error("SubsetOf wrong")
	}
	if !s.Intersects(q.Set("b", "z")) || s.Intersects(q.Set("z")) {
		t.Error("Intersects wrong")
	}
	u := s.Union(q.Set("c"))
	if u.Key() != "a+b+c" {
		t.Errorf("Union = %q", u.Key())
	}
	if !s.Equal(q.Set("a", "b")) || s.Equal(u) {
		t.Error("Equal wrong")
	}
	var empty AliasSet
	if !empty.IsEmpty() || empty.String() != "{}" || s.String() != "{a,b}" || empty.Key() != "" {
		t.Error("empty/String wrong")
	}
	if !empty.Union(s).Equal(s) || empty.Union(s).Key() != "a+b" {
		t.Error("union with the zero value lost the dictionary")
	}
	if q.Set("z").Alias() != "z" || u.Alias() != "a" || u.Minus(q.Set("a")).Key() != "b+c" {
		t.Error("Alias/Minus wrong")
	}
}

// TestAliasSetBitOrderMatchesSortedKeys: walking the bits visits aliases in
// sorted name order, so Key and Names render what a sorted name list did,
// whatever order the relations were mounted in.
func TestAliasSetBitOrderMatchesSortedKeys(t *testing.T) {
	q := aliasQuery("mk", "t", "ci", "n", "an", "k")
	for mask := uint64(1); mask < 1<<6; mask++ {
		var s AliasSet
		var names []string
		for r := q.Aliases(); !r.IsEmpty(); r = r.Minus(r.Lowest()) {
			if mask&r.Lowest().Mask() != 0 {
				s = s.Union(r.Lowest())
				names = append(names, r.Lowest().Alias())
			}
		}
		want := append([]string(nil), names...)
		sort.Strings(want)
		if !reflect.DeepEqual(names, want) {
			t.Fatalf("bit walk %v is not sorted", names)
		}
		if s.Key() != strings.Join(want, "+") || !reflect.DeepEqual(s.Names(), want) {
			t.Fatalf("mask %b: Key %q Names %v, want %v", mask, s.Key(), s.Names(), want)
		}
	}
}

func TestAliasSetQuickUnionCommutes(t *testing.T) {
	q := aliasQuery("a", "b", "c", "d", "e", "f")
	f := func(a, b []byte) bool {
		toSet := func(xs []byte) AliasSet {
			names := make([]string, len(xs))
			for i, x := range xs {
				names[i] = string(rune('a' + int(x)%6))
			}
			return q.Set(names...)
		}
		x, y := toSet(a), toSet(b)
		return x.Union(y).Key() == y.Union(x).Key() &&
			x.SubsetOf(x.Union(y)) && y.SubsetOf(x.Union(y))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAliasSetOpsDoNotAllocate pins the word-operation contract the planner's
// hot path relies on, including Key on a cached multi-alias set.
func TestAliasSetOpsDoNotAllocate(t *testing.T) {
	q := aliasQuery("a", "b", "c", "d")
	x, y := q.Set("a", "c"), q.Set("b", "c", "d")
	_ = x.Union(y).Key() // render once; later calls hit the cache
	var sink bool
	allocs := testing.AllocsPerRun(100, func() {
		u := x.Union(y)
		sink = u.SubsetOf(q.Aliases()) && x.Intersects(y) && !u.Equal(x) && u.Contains("d")
		_ = u.Key()
	})
	if allocs != 0 {
		t.Errorf("alias-set operations allocated %.1f times per run", allocs)
	}
	_ = sink
}

// TestAliasSetKeyCacheConcurrent renders every subset's key from several
// goroutines at once, as root-parallel search shards do.
func TestAliasSetKeyCacheConcurrent(t *testing.T) {
	q := aliasQuery("a", "b", "c", "d", "e", "f", "g")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for mask := uint64(1); mask < 1<<7; mask++ {
				s := AliasSet{mask, q.Aliases().dict}
				if s.Key() != strings.Join(s.Names(), "+") {
					t.Errorf("mask %b: key %q", mask, s.Key())
				}
			}
		}()
	}
	wg.Wait()
}

// TestBuilderRejectsTooManyAliases: one alias set is one word, so a query
// mounting more than 64 relations is an error, not a wrong plan.
func TestBuilderRejectsTooManyAliases(t *testing.T) {
	names := make([]string, MaxAliases+1)
	for i := range names {
		names[i] = fmt.Sprintf("r%02d", i)
	}
	b := NewBuilder("wide")
	for _, n := range names {
		b.Rel(n, "R")
	}
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "at most 64") {
		t.Errorf("65 aliases: err = %v", err)
	}
	b = NewBuilder("widest")
	for _, n := range names[:MaxAliases] {
		b.Rel(n, "R")
	}
	b.Join(expr.Identity("r00.k"), expr.Identity("r63.k"))
	q, err := b.Build()
	if err != nil {
		t.Fatalf("64 aliases: %v", err)
	}
	if got := q.Joins[0].Aliases().Key(); got != "r00+r63" {
		t.Errorf("64-alias join key = %q", got)
	}
}

// threeWay builds the running example of §2.3:
// SELECT SUM(R.a) FROM R,S,T WHERE F1(R)=F2(S) AND F3(R)=F4(T).
func threeWay(t *testing.T) *Query {
	t.Helper()
	q, err := NewBuilder("sec23").
		Rel("R", "R").Rel("S", "S").Rel("T", "T").
		Join(expr.HashMod("R.a", 1000), expr.Identity("S.k")).
		Join(expr.HashMod("R.b", 1000), expr.Identity("T.k")).
		Sum("R.a").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestBuilderAndAccessors(t *testing.T) {
	q := threeWay(t)
	if q.Aliases().Key() != "R+S+T" {
		t.Errorf("Aliases = %v", q.Aliases())
	}
	if len(q.Terms()) != 4 {
		t.Errorf("terms = %d, want 4", len(q.Terms()))
	}
	for i, term := range q.Terms() {
		if term.ID != i || q.Term(i) != term {
			t.Errorf("term ID mismatch at %d", i)
		}
	}
	if tb, ok := q.TableOf("S"); !ok || tb != "S" {
		t.Error("TableOf failed")
	}
	if _, ok := q.TableOf("Z"); ok {
		t.Error("TableOf of unknown alias should fail")
	}
	if q.Out.Kind != AggSum || q.Out.Attr != "R.a" {
		t.Error("aggregate wrong")
	}
}

func TestApplicability(t *testing.T) {
	q := threeWay(t)
	rs := q.Set("R", "S")
	rt := q.Set("R", "T")
	all := q.Set("R", "S", "T")
	if !q.Joins[0].ApplicableAt(rs) || q.Joins[0].ApplicableAt(rt) {
		t.Error("join 0 applicability wrong")
	}
	if got := q.JoinsApplicableAt(all); len(got) != 2 {
		t.Errorf("JoinsApplicableAt(all) = %d preds", len(got))
	}
	newPreds := q.PredsNewAt(q.Set("R"), q.Set("S"))
	if len(newPreds) != 1 || newPreds[0].ID != 0 {
		t.Errorf("PredsNewAt(R,S) = %v", newPreds)
	}
	// Joining RS with T newly applies pred 1 only.
	newPreds = q.PredsNewAt(rs, q.Set("T"))
	if len(newPreds) != 1 || newPreds[0].ID != 1 {
		t.Errorf("PredsNewAt(RS,T) = %v", newPreds)
	}
}

func TestConnected(t *testing.T) {
	q := threeWay(t)
	if !q.Connected(q.Set("R"), q.Set("S")) {
		t.Error("R-S should be connected")
	}
	if q.Connected(q.Set("S"), q.Set("T")) {
		t.Error("S-T is a pure cross product, not connected")
	}
}

func TestConnectedMultiTableUDF(t *testing.T) {
	// WHERE F1(R,S) = F2(T): R×S is "connected" because it makes F1 evaluable.
	q, err := NewBuilder("multi").
		Rel("R", "R").Rel("S", "S").Rel("T", "T").
		Join(expr.SumMod("R.a", "S.b", 100), expr.Identity("T.k")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if !q.Connected(q.Set("R"), q.Set("S")) {
		t.Error("R-S must be connected: it makes F1(R,S) evaluable")
	}
	if !q.Connected(q.Set("R", "S"), q.Set("T")) {
		t.Error("RS-T must be connected by the predicate")
	}
	if q.Connected(q.Set("R"), q.Set("T")) {
		t.Error("R-T alone enables nothing")
	}
}

func TestSelections(t *testing.T) {
	q, err := NewBuilder("sel").
		Rel("o1", "ord").Rel("o2", "ord").
		Join(expr.Identity("o1.cid"), expr.Identity("o2.cid")).
		Select(expr.ExtractDate("o1.when"), value.String("2019-01-11")).
		Select(expr.SumMod("o1.a", "o2.a", 10), value.Int(3)).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	o1 := q.Set("o1")
	if got := q.SelsAt(o1); len(got) != 1 || got[0].ID != 0 {
		t.Errorf("SelsAt(o1) = %v", got)
	}
	newSels := q.SelsNewAt(o1, q.Set("o2"))
	if len(newSels) != 1 || newSels[0].ID != 1 {
		t.Errorf("SelsNewAt = %v", newSels)
	}
	if got := q.SelsAt(q.Aliases()); len(got) != 2 {
		t.Errorf("SelsAt(all) = %d", len(got))
	}
}

func TestValidateRejectsBadQueries(t *testing.T) {
	// Duplicate alias.
	_, err := NewBuilder("dup").Rel("R", "R").Rel("R", "R").Build()
	if err == nil {
		t.Error("duplicate alias must fail validation")
	}
	// Overlapping join sides.
	_, err = NewBuilder("overlap").
		Rel("R", "R").
		Join(expr.Identity("R.a"), expr.Identity("R.b")).
		Build()
	if err == nil {
		t.Error("overlapping join sides must fail validation")
	}
	// Unknown alias in predicate.
	_, err = NewBuilder("unknown").
		Rel("R", "R").Rel("S", "S").
		Join(expr.Identity("R.a"), expr.Identity("Z.b")).
		Build()
	if err == nil {
		t.Error("unknown alias must fail validation")
	}
	// Unknown alias in selection.
	_, err = NewBuilder("unksel").
		Rel("R", "R").
		Select(expr.Identity("Z.a"), value.Int(1)).
		Build()
	if err == nil {
		t.Error("unknown selection alias must fail validation")
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustBuild on invalid query must panic")
		}
	}()
	NewBuilder("bad").Rel("R", "R").Rel("R", "R").MustBuild()
}

func TestStringRendering(t *testing.T) {
	q := threeWay(t)
	if q.Joins[0].String() == "" || q.Joins[0].L.String() == "" {
		t.Error("String renderings should be non-empty")
	}
	q2 := NewBuilder("s").Rel("R", "R").
		Select(expr.Identity("R.a"), value.Int(5)).MustBuild()
	if got := q2.Sels[0].String(); got != "id(R.a) = 5" {
		t.Errorf("SelPred.String = %q", got)
	}
}
