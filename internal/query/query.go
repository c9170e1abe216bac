package query

import (
	"fmt"
	"sort"

	"monsoon/internal/expr"
	"monsoon/internal/value"
)

// Term is one side of a predicate: an opaque UDF together with the alias set
// it spans. Terms carry a query-unique ID used as the statistics key for
// d(term, expr | partner).
type Term struct {
	ID      int
	Fn      *expr.UDF
	Aliases AliasSet
}

// String renders the term for plans and logs.
func (t *Term) String() string { return t.Fn.String() }

// JoinPred is an equality predicate L = R between two function terms whose
// alias sets are disjoint. When either side spans more than one alias it is a
// multi-table obscured predicate: no statistic for that side can exist until
// an expression covering the side has been materialized.
type JoinPred struct {
	ID   int
	L, R *Term

	all AliasSet // L.Aliases ∪ R.Aliases, set by Build
}

// Aliases returns the union of both sides' aliases.
func (p *JoinPred) Aliases() AliasSet { return p.all }

// ApplicableAt reports whether the predicate can be evaluated over an
// expression covering the given alias set.
func (p *JoinPred) ApplicableAt(s AliasSet) bool { return p.all.SubsetOf(s) }

// NewAt reports whether joining expressions covering left and right must
// evaluate the predicate: it is applicable over their union but over neither
// side alone.
func (p *JoinPred) NewAt(left, right AliasSet) bool {
	return p.all.SubsetOf(left.Union(right)) && !p.all.SubsetOf(left) && !p.all.SubsetOf(right)
}

// String renders the predicate.
func (p *JoinPred) String() string { return p.L.String() + " = " + p.R.String() }

// SelPred is a selection predicate T = const. Single-alias selections are
// pushed to scans; multi-alias selections are applied as soon as a plan node
// covers them.
type SelPred struct {
	ID    int
	T     *Term
	Const value.Value
}

// String renders the predicate.
func (p *SelPred) String() string { return p.T.String() + " = " + p.Const.String() }

// NewAt reports whether joining expressions covering left and right must
// apply the selection: its term is evaluable over their union but over
// neither side alone.
func (p *SelPred) NewAt(left, right AliasSet) bool {
	a := p.T.Aliases
	return a.SubsetOf(left.Union(right)) && !a.SubsetOf(left) && !a.SubsetOf(right)
}

// AggKind selects the final aggregate computed over the completed join.
type AggKind uint8

// The supported final aggregates.
const (
	AggCount AggKind = iota // COUNT(*)
	AggSum                  // SUM(attr)
)

// Agg describes the query's final aggregate.
type Agg struct {
	Kind AggKind
	Attr string // qualified attribute for AggSum
}

// RelRef mounts a stored base table under an alias.
type RelRef struct {
	Alias string
	Table string
}

// Query is the logical query: relations, join predicates, selections, and a
// final aggregate. Build instances through the Builder so IDs and alias sets
// stay consistent.
type Query struct {
	Name  string
	Rels  []RelRef
	Joins []*JoinPred
	Sels  []*SelPred
	Out   Agg

	terms []*Term
	all   AliasSet // every alias; its dictionary numbers the query's aliases
}

// Aliases returns the set of all aliases in the query.
func (q *Query) Aliases() AliasSet { return q.all }

// Set returns the set of the named aliases. It panics on a name the query
// does not mount: callers pass aliases they read off the query itself.
func (q *Query) Set(names ...string) AliasSet {
	s := AliasSet{dict: q.all.dict}
	for _, n := range names {
		b, ok := q.all.dict.bit(n)
		if !ok {
			panic("query " + q.Name + ": no alias " + n)
		}
		s.bits |= b
	}
	return s
}

// Terms returns every term in the query (join sides and selection terms),
// indexed by Term.ID.
func (q *Query) Terms() []*Term { return q.terms }

// Term returns the term with the given ID.
func (q *Query) Term(id int) *Term { return q.terms[id] }

// TableOf resolves an alias to its base-table name.
func (q *Query) TableOf(alias string) (string, bool) {
	for _, r := range q.Rels {
		if r.Alias == alias {
			return r.Table, true
		}
	}
	return "", false
}

// JoinsApplicableAt lists predicates evaluable over an alias set but not
// evaluable over any strict subset the caller has already handled. The engine
// and the cost model both use PredsAppliedAt instead; this helper serves the
// planners.
func (q *Query) JoinsApplicableAt(s AliasSet) []*JoinPred {
	var out []*JoinPred
	for _, p := range q.Joins {
		if p.ApplicableAt(s) {
			out = append(out, p)
		}
	}
	return out
}

// PredsNewAt returns the join predicates that are applicable over the union
// of two alias sets but not over either side alone — exactly the predicates a
// join of the two sides must evaluate.
func (q *Query) PredsNewAt(left, right AliasSet) []*JoinPred {
	var out []*JoinPred
	for _, p := range q.Joins {
		if p.NewAt(left, right) {
			out = append(out, p)
		}
	}
	return out
}

// SelsNewAt returns the selection predicates applicable at the union but not
// within either side.
func (q *Query) SelsNewAt(left, right AliasSet) []*SelPred {
	var out []*SelPred
	for _, p := range q.Sels {
		if p.NewAt(left, right) {
			out = append(out, p)
		}
	}
	return out
}

// SelsAt returns the selection predicates fully contained in the alias set.
func (q *Query) SelsAt(s AliasSet) []*SelPred {
	var out []*SelPred
	for _, p := range q.Sels {
		if p.T.Aliases.SubsetOf(s) {
			out = append(out, p)
		}
	}
	return out
}

// TermEvaluableAt reports whether a term can be computed over an expression
// covering s.
func TermEvaluableAt(t *Term, s AliasSet) bool { return t.Aliases.SubsetOf(s) }

// Connected reports whether joining the expressions covering left and right
// is "useful": it newly enables a join predicate, or it newly makes some
// predicate side evaluable (the multi-table-UDF case that can force a cross
// product, e.g. F1(R,S) = F2(T) forces R×S before the predicate exists).
func (q *Query) Connected(left, right AliasSet) bool {
	for _, p := range q.Joins {
		if p.NewAt(left, right) {
			return true
		}
	}
	union := left.Union(right)
	for _, p := range q.Joins {
		for _, t := range [2]*Term{p.L, p.R} {
			if t.Aliases.Size() > 1 &&
				t.Aliases.SubsetOf(union) &&
				!t.Aliases.SubsetOf(left) && !t.Aliases.SubsetOf(right) {
				return true
			}
		}
	}
	return false
}

// Validate checks structural invariants: join sides are disjoint and
// non-empty, term IDs are dense. Build calls it after resolving every alias;
// tests can too.
func (q *Query) Validate() error {
	for _, p := range q.Joins {
		if p.L.Aliases.IsEmpty() || p.R.Aliases.IsEmpty() {
			return fmt.Errorf("query %s: join pred %d has an empty side", q.Name, p.ID)
		}
		if p.L.Aliases.Intersects(p.R.Aliases) {
			return fmt.Errorf("query %s: join pred %d sides overlap", q.Name, p.ID)
		}
	}
	for i, t := range q.terms {
		if t.ID != i {
			return fmt.Errorf("query %s: term ID %d at index %d", q.Name, t.ID, i)
		}
	}
	return nil
}

// resolve numbers the aliases in sorted name order and computes every term's
// and join predicate's alias set. It fails on a duplicate alias, on more
// than MaxAliases relations, and on a term over an alias the query does not
// mount.
func (q *Query) resolve() error {
	names := make([]string, len(q.Rels))
	for i, r := range q.Rels {
		names[i] = r.Alias
	}
	sort.Strings(names)
	for i := 1; i < len(names); i++ {
		if names[i] == names[i-1] {
			return fmt.Errorf("query %s: duplicate aliases", q.Name)
		}
	}
	if len(names) > MaxAliases {
		return fmt.Errorf("query %s: %d relations, at most %d supported", q.Name, len(names), MaxAliases)
	}
	d := newAliasDict(names)
	q.all = AliasSet{dict: d}
	for i := range names {
		q.all.bits |= 1 << uint(i)
	}
	set := func(t *Term) bool {
		t.Aliases = AliasSet{dict: d}
		for _, a := range t.Fn.Aliases() {
			b, ok := d.bit(a)
			if !ok {
				return false
			}
			t.Aliases.bits |= b
		}
		return true
	}
	for _, p := range q.Joins {
		if !set(p.L) || !set(p.R) {
			return fmt.Errorf("query %s: join pred %d references unknown alias", q.Name, p.ID)
		}
		p.all = p.L.Aliases.Union(p.R.Aliases)
	}
	for _, p := range q.Sels {
		if !set(p.T) {
			return fmt.Errorf("query %s: selection %d references unknown alias", q.Name, p.ID)
		}
	}
	return nil
}

// Builder assembles a Query with consistent IDs.
type Builder struct {
	q *Query
}

// NewBuilder starts a query.
func NewBuilder(name string) *Builder {
	return &Builder{q: &Query{Name: name, Out: Agg{Kind: AggCount}}}
}

// Rel mounts table under alias.
func (b *Builder) Rel(alias, tableName string) *Builder {
	b.q.Rels = append(b.q.Rels, RelRef{Alias: alias, Table: tableName})
	return b
}

func (b *Builder) term(fn *expr.UDF) *Term {
	t := &Term{ID: len(b.q.terms), Fn: fn}
	b.q.terms = append(b.q.terms, t)
	return t
}

// Join adds the predicate left = right.
func (b *Builder) Join(left, right *expr.UDF) *Builder {
	p := &JoinPred{ID: len(b.q.Joins), L: b.term(left), R: b.term(right)}
	b.q.Joins = append(b.q.Joins, p)
	return b
}

// Select adds the predicate fn = constant.
func (b *Builder) Select(fn *expr.UDF, constant value.Value) *Builder {
	p := &SelPred{ID: len(b.q.Sels), T: b.term(fn), Const: constant}
	b.q.Sels = append(b.q.Sels, p)
	return b
}

// Sum sets the final aggregate to SUM(attr).
func (b *Builder) Sum(attr string) *Builder {
	b.q.Out = Agg{Kind: AggSum, Attr: attr}
	return b
}

// Build resolves the aliases, validates and returns the query.
func (b *Builder) Build() (*Query, error) {
	if err := b.q.resolve(); err != nil {
		return nil, err
	}
	if err := b.q.Validate(); err != nil {
		return nil, err
	}
	return b.q, nil
}

// MustBuild builds or panics; benchmark suites use it since their queries are
// static.
func (b *Builder) MustBuild() *Query {
	q, err := b.Build()
	if err != nil {
		panic(err)
	}
	return q
}
