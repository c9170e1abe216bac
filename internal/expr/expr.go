// Package expr models the opaque user-defined functions whose statistics are
// hidden from the optimizer. A UDF is a black box to the planner — only its
// argument attribute list is visible (the system knows *which* attributes a
// UDF reads, not *what* it computes), exactly the "partially obscured
// predicate" setting of the paper: the optimizer can see an equi-join of two
// function terms but cannot estimate their distinct-value counts statically.
package expr

import (
	"fmt"
	"sort"
	"strings"

	"monsoon/internal/table"
	"monsoon/internal/value"
)

// UDF is an opaque scalar function over a set of table-qualified attributes.
// Fn receives the argument values in the order of Args.
type UDF struct {
	// Name identifies the function in plans and statistics keys.
	Name string
	// Args lists the fully qualified attributes ("alias.column") the
	// function reads. Aliases spanned by Args determine when the function
	// becomes evaluable during planning.
	Args []string
	// Fn is the opaque implementation.
	Fn func(args []value.Value) value.Value

	// identity marks the UDFs built by Identity, whose bindings read the
	// column directly instead of calling Fn.
	identity bool
}

// IsIdentity reports whether u was built by Identity: a plain projection of
// its single argument. A caller-supplied function is never an identity, even
// one named "id".
func (u *UDF) IsIdentity() bool { return u.identity }

// Aliases returns the sorted set of aliases referenced by the UDF's
// arguments. A UDF with more than one alias is a multi-table UDF: its
// statistics cannot be collected before a join covering all aliases has been
// materialized.
func (u *UDF) Aliases() []string {
	set := map[string]bool{}
	for _, a := range u.Args {
		i := strings.IndexByte(a, '.')
		if i < 0 {
			panic(fmt.Sprintf("expr: unqualified UDF argument %q", a))
		}
		set[a[:i]] = true
	}
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Binding caches the column positions of the UDF's arguments in one schema so
// repeated evaluation avoids map lookups per row. A Binding owns a scratch
// argument slice, so each goroutine needs its own (see Clone).
type Binding struct {
	udf  *UDF
	pos  []int
	args []value.Value
}

// Bind resolves the UDF's arguments against a schema. It returns false if any
// argument is not present (the UDF is not evaluable over this schema).
func (u *UDF) Bind(s *table.Schema) (*Binding, bool) {
	pos := make([]int, len(u.Args))
	for i, a := range u.Args {
		p, ok := s.Lookup(a)
		if !ok {
			return nil, false
		}
		pos[i] = p
	}
	return &Binding{udf: u, pos: pos, args: make([]value.Value, len(pos))}, true
}

// Clone returns a binding over the same schema positions with its own
// scratch space, for use on another goroutine.
func (b *Binding) Clone() *Binding {
	return &Binding{udf: b.udf, pos: b.pos, args: make([]value.Value, len(b.pos))}
}

// Evaluable reports whether all the UDF's arguments are present in s.
func (u *UDF) Evaluable(s *table.Schema) bool {
	for _, a := range u.Args {
		if _, ok := s.Lookup(a); !ok {
			return false
		}
	}
	return true
}

// Eval applies the UDF to one row. The returned value may alias the binding's
// scratch space only if the UDF itself retains it, which library UDFs do not.
// An identity returns the column value without calling Fn.
func (b *Binding) Eval(row table.Row) value.Value {
	if b.udf.identity {
		return row[b.pos[0]]
	}
	for i, p := range b.pos {
		b.args[i] = row[p]
	}
	return b.udf.Fn(b.args)
}

// EvalPair applies the UDF to the concatenation l ++ r without building it:
// the binding's schema is a join's output schema, and argument position p
// reads l[p] when p < len(l) and r[p-len(l)] otherwise. It returns exactly
// what Eval would on the concatenated row.
func (b *Binding) EvalPair(l, r table.Row) value.Value {
	if b.udf.identity {
		return pick(l, r, b.pos[0])
	}
	for i, p := range b.pos {
		b.args[i] = pick(l, r, p)
	}
	return b.udf.Fn(b.args)
}

// pick reads position p of the row l ++ r.
func pick(l, r table.Row, p int) value.Value {
	if p < len(l) {
		return l[p]
	}
	return r[p-len(l)]
}

// UDF returns the bound function.
func (b *Binding) UDF() *UDF { return b.udf }

// Column reports the schema position an identity binding reads; ok is false
// for any other UDF, whose value exists only once Fn computes it.
func (b *Binding) Column() (pos int, ok bool) {
	if !b.udf.identity {
		return 0, false
	}
	return b.pos[0], true
}

// Rebase returns a copy of the UDF with every argument's alias rewritten
// through the given mapping (old alias -> new alias). Arguments whose alias
// is absent from the map keep their alias. Benchmarks use this to instantiate
// one template UDF for several table aliases.
func (u *UDF) Rebase(mapping map[string]string) *UDF {
	args := make([]string, len(u.Args))
	for i, a := range u.Args {
		j := strings.IndexByte(a, '.')
		alias, col := a[:j], a[j+1:]
		if repl, ok := mapping[alias]; ok {
			alias = repl
		}
		args[i] = alias + "." + col
	}
	return &UDF{Name: u.Name, Args: args, Fn: u.Fn, identity: u.identity}
}

// String renders the UDF as F(args...) for plans and logs.
func (u *UDF) String() string {
	return u.Name + "(" + strings.Join(u.Args, ",") + ")"
}
