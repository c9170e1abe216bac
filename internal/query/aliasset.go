// Package query defines the logical query IR the optimizers plan over:
// relations mounted under aliases, opaque function terms, join predicates of
// the form F1(...) = F2(...) (each side possibly spanning several aliases —
// a partially obscured, possibly multi-table predicate), selection predicates
// F(...) = const, and the join graph derived from them.
//
// A central simplification the whole repository leans on: because every plan
// eagerly applies every predicate that becomes applicable, the *result* of
// executing any join tree is determined by the set of aliases it covers.
// Expression identity — for materialization, for c(expr) statistics, and for
// d(term, expr) statistics — is therefore the alias set, independent of join
// order.
package query

import (
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// MaxAliases is the most relations one query may mount: an alias set is one
// 64-bit word.
const MaxAliases = 64

// AliasSet is a set of one query's relation aliases, held as a bitmask: bit
// i stands for the query's i-th alias in sorted name order. Walking the bits
// from low to high therefore visits the members in sorted order, and Key
// renders the same "a+b+c" a sorted name list would. Union, SubsetOf,
// Intersects, Equal and Contains are word operations that never allocate.
//
// Sets come from their query (Query.Set, Query.Aliases, Term.Aliases); sets
// of different queries must not be combined. The zero value is the empty
// set.
type AliasSet struct {
	bits uint64
	dict *aliasDict // the owning query's aliases; nil only for the zero value
}

// aliasDict is a query's alias dictionary: the sorted names bits index into,
// and the rendered key of every multi-alias set asked for so far.
type aliasDict struct {
	names []string // sorted, unique; bit i is names[i]

	// keys caches rendered multi-alias keys by mask. Root-parallel search
	// shards render keys of one query concurrently, so the map is
	// copy-on-write: readers load it without locking, and a miss copies it
	// under mu with the new key added. A query has at most one entry per
	// alias subset the planners ever touch.
	mu   sync.Mutex
	keys atomic.Pointer[map[uint64]string]
}

// newAliasDict builds the dictionary over the given sorted, unique names.
func newAliasDict(sorted []string) *aliasDict {
	d := &aliasDict{names: sorted}
	d.keys.Store(&map[uint64]string{})
	return d
}

// bit returns the mask of one alias, or false when the query has no such
// alias.
func (d *aliasDict) bit(name string) (uint64, bool) {
	i := sort.SearchStrings(d.names, name)
	if i < len(d.names) && d.names[i] == name {
		return 1 << uint(i), true
	}
	return 0, false
}

// key returns the rendered key of a set with at least two members.
func (d *aliasDict) key(mask uint64) string {
	if k, ok := (*d.keys.Load())[mask]; ok {
		return k
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	old := *d.keys.Load()
	if k, ok := old[mask]; ok {
		return k
	}
	k := d.join(mask, "+")
	next := make(map[uint64]string, len(old)+1)
	for m, s := range old {
		next[m] = s
	}
	next[mask] = k
	d.keys.Store(&next)
	return k
}

// join renders the members of mask in bit order separated by sep.
func (d *aliasDict) join(mask uint64, sep string) string {
	var b strings.Builder
	for m := mask; m != 0; m &= m - 1 {
		if b.Len() > 0 {
			b.WriteString(sep)
		}
		b.WriteString(d.names[bits.TrailingZeros64(m)])
	}
	return b.String()
}

// Key returns the canonical string form ("a+b+c"), used as a map key for
// materialized expressions and statistics. Keys of multi-alias sets are
// rendered once per query and cached.
func (s AliasSet) Key() string {
	switch {
	case s.bits == 0:
		return ""
	case s.bits&(s.bits-1) == 0:
		return s.dict.names[bits.TrailingZeros64(s.bits)]
	default:
		return s.dict.key(s.bits)
	}
}

// Names returns the member aliases in sorted order, in a fresh slice.
func (s AliasSet) Names() []string {
	out := make([]string, 0, s.Size())
	for m := s.bits; m != 0; m &= m - 1 {
		out = append(out, s.dict.names[bits.TrailingZeros64(m)])
	}
	return out
}

// Alias returns the smallest member's name; "" for the empty set. For a
// single-alias set it is the alias.
func (s AliasSet) Alias() string {
	if s.bits == 0 {
		return ""
	}
	return s.dict.names[bits.TrailingZeros64(s.bits)]
}

// Lowest returns the single-alias set of the smallest member; empty for the
// empty set. With Minus it walks the members without allocating:
//
//	for r := s; !r.IsEmpty(); r = r.Minus(r.Lowest()) { ... }
func (s AliasSet) Lowest() AliasSet { return AliasSet{s.bits & -s.bits, s.dict} }

// Minus returns the members of s that are not in o.
func (s AliasSet) Minus(o AliasSet) AliasSet { return AliasSet{s.bits &^ o.bits, s.dict} }

// Mask returns the set's bitmask over its query's sorted aliases.
func (s AliasSet) Mask() uint64 { return s.bits }

// Size returns the number of members.
func (s AliasSet) Size() int { return bits.OnesCount64(s.bits) }

// Contains reports membership of a single alias.
func (s AliasSet) Contains(a string) bool {
	if s.dict == nil {
		return false
	}
	b, ok := s.dict.bit(a)
	return ok && s.bits&b != 0
}

// SubsetOf reports whether every member of s is in o.
func (s AliasSet) SubsetOf(o AliasSet) bool { return s.bits&^o.bits == 0 }

// Intersects reports whether the two sets share any member.
func (s AliasSet) Intersects(o AliasSet) bool { return s.bits&o.bits != 0 }

// Equal reports set equality.
func (s AliasSet) Equal(o AliasSet) bool { return s.bits == o.bits }

// Union returns the set union.
func (s AliasSet) Union(o AliasSet) AliasSet {
	d := s.dict
	if d == nil {
		d = o.dict
	}
	return AliasSet{s.bits | o.bits, d}
}

// IsEmpty reports whether the set has no members.
func (s AliasSet) IsEmpty() bool { return s.bits == 0 }

// String renders the set for logs.
func (s AliasSet) String() string {
	if s.IsEmpty() {
		return "{}"
	}
	return "{" + s.dict.join(s.bits, ",") + "}"
}
