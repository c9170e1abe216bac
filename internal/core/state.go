// Package core is the paper's primary contribution: the Monsoon optimizer.
// It formalizes interleaved statistics collection and execution as a Markov
// decision process (§4) — states are (planned expressions Rp, materialized
// expressions Re, statistics S); actions build join trees, attach Σ
// statistics-collection operators, or EXECUTE; EXECUTE transitions are
// stochastic, hardening unknown statistics — and solves it online with
// Monte-Carlo tree search (§5.1) against a prior over distinct-value counts
// (§5.2). The Driver (§5.3) alternates MCTS planning with real execution on
// the engine until the query result is materialized.
package core

import (
	"fmt"
	"slices"
	"strings"

	"monsoon/internal/mcts"
	"monsoon/internal/plan"
	"monsoon/internal/query"
	"monsoon/internal/randx"
	"monsoon/internal/stats"
)

// PlannedTree is one entry of Rp.
type PlannedTree struct {
	Tree *plan.Node
	// SigmaCopy marks trees created by copying an already-materialized
	// expression from Re and topping it with Σ (§4.2 action 1). Such trees
	// are read-only side computations and are exempt from the pairwise
	// alias-disjointness the other planned trees keep.
	SigmaCopy bool
}

// State is the MDP state (§4.1). Plan-edit transitions share the statistics
// store; only EXECUTE transitions write statistics, into a copy-on-write
// overlay of their own.
type State struct {
	// Planned is Rp, in insertion order. Each tree's alias set identifies it:
	// the legality rules never plan the same expression twice.
	Planned []PlannedTree
	// Active is the frontier of Re: materialized expressions whose alias
	// sets are pairwise disjoint and not subsumed by a larger materialized
	// expression. Sorted by key for determinism. Plan edits share it between
	// states, so it is replaced, never modified in place.
	Active []query.AliasSet
	// St is the statistics set S.
	St *stats.Store

	full query.AliasSet // alias set of the whole query
	done bool           // a materialization covering the full set has run

	// leaves, when set, hands out one leaf node per alias set to every
	// state of one search shard (see CloneForSearch).
	leaves leafCache
}

// leafCache maps an alias set's mask to its leaf node. Plan nodes are
// immutable, so the states of one search shard share them instead of
// allocating a leaf per plan edit; one goroutine uses a cache.
type leafCache map[uint64]*plan.Node

// leaf returns the leaf node over a.
func (s *State) leaf(a query.AliasSet) *plan.Node {
	if s.leaves == nil {
		return plan.NewLeaf(a)
	}
	n := s.leaves[a.Mask()]
	if n == nil {
		n = plan.NewLeaf(a)
		s.leaves[a.Mask()] = n
	}
	return n
}

// NewInitialState builds the start state: no plans, every base relation
// active, and whatever statistics st already holds (raw input sizes at
// minimum; callers with partial knowledge may pre-seed more, §3.1).
func NewInitialState(q *query.Query, st *stats.Store) *State {
	s := &State{St: st, full: q.Aliases()}
	for r := s.full; !r.IsEmpty(); r = r.Minus(r.Lowest()) {
		s.Active = append(s.Active, r.Lowest())
	}
	s.sortActive()
	return s
}

func (s *State) sortActive() {
	slices.SortFunc(s.Active, func(a, b query.AliasSet) int { return strings.Compare(a.Key(), b.Key()) })
}

// Terminal reports whether the full query result has been materialized. A
// flag (set when an executed expression covers every alias) rather than an
// inspection of Active: for single-relation queries the full alias set is
// "active" from the start, yet its filtered result still has to be computed.
func (s *State) Terminal() bool { return s.done }

// clone copies the mutable structure. The statistics store is shared unless
// withStats is set, in which case the clone writes to an overlay of it.
func (s *State) clone(withStats bool) *State {
	c := &State{full: s.full, St: s.St, done: s.done, Active: s.Active, leaves: s.leaves}
	c.Planned = append(make([]PlannedTree, 0, len(s.Planned)+1), s.Planned...)
	if withStats {
		c.St = s.St.Overlay()
	}
	return c
}

// CloneForSearch implements mcts.Cloner: each root-parallel search shard
// plans from its own copy of the root state, over its own overlay of the
// statistics store (so the shard reads the shared store without locking
// it) and with its own leaf cache.
func (s *State) CloneForSearch() mcts.State {
	c := s.clone(true)
	c.leaves = leafCache{}
	return c
}

// findPlanned locates the planned tree covering exactly set; -1 when absent.
func (s *State) findPlanned(set query.AliasSet) int {
	for i, t := range s.Planned {
		if t.Tree.Aliases().Equal(set) {
			return i
		}
	}
	return -1
}

// findActive locates the active entry equal to set; -1 when absent.
func (s *State) findActive(set query.AliasSet) int {
	for i, a := range s.Active {
		if a.Equal(set) {
			return i
		}
	}
	return -1
}

// OutcomeKey identifies the state for chance-node bucketing: the structure
// plus every statistic, counts log2-bucketed so that nearby sampled worlds
// share subtrees while materially different ones split (§5.1). It is the
// digest of OutcomeString: the planned trees in order, the active sets in
// order, and the statistics' BucketDigest. It never allocates.
func (s *State) OutcomeKey() uint64 {
	var h uint64
	for _, t := range s.Planned {
		h = randx.SplitMix64(h ^ treeHash(t.Tree, true))
	}
	h = randx.SplitMix64(h ^ uint64(len(s.Planned)))
	for _, a := range s.Active {
		h = randx.SplitMix64(h ^ a.Mask())
	}
	h = randx.SplitMix64(h ^ uint64(len(s.Active)))
	return randx.SplitMix64(h ^ s.St.BucketDigest())
}

// treeHash digests what Node.String renders: the join structure, the leaves'
// alias sets and a Σ on the root.
func treeHash(n *plan.Node, root bool) uint64 {
	var h uint64
	if n.IsLeaf() {
		h = randx.SplitMix64(1 ^ n.Leaf.Mask())
	} else {
		h = randx.SplitMix64(randx.SplitMix64(2^treeHash(n.Left, false)) ^ treeHash(n.Right, false))
	}
	if root && n.Sigma {
		h = randx.SplitMix64(h ^ 3)
	}
	return h
}

// OutcomeString is the readable form of OutcomeKey. The plan cache keys on
// it, and MCTS renders it to break ties between equally visited outcomes.
func (s *State) OutcomeString() string {
	var b strings.Builder
	for _, t := range s.Planned {
		b.WriteString(t.Tree.String())
		b.WriteByte(';')
	}
	b.WriteByte('|')
	for _, a := range s.Active {
		b.WriteString(a.Key())
		b.WriteByte(';')
	}
	b.WriteByte('|')
	b.WriteString(s.St.BucketSignature())
	return b.String()
}

// String renders the state for debugging.
func (s *State) String() string {
	var b strings.Builder
	b.WriteString("Rp={")
	for i, t := range s.Planned {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.Tree.String())
	}
	b.WriteString("} Re*={")
	for i, a := range s.Active {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.Key())
	}
	fmt.Fprintf(&b, "} |S|=%d+%d", s.St.CountEntries(), s.St.MeasuredEntries())
	return b.String()
}
