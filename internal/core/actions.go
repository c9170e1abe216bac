package core

import (
	"fmt"

	"monsoon/internal/plan"
	"monsoon/internal/query"
)

// ActionKind enumerates the MDP actions of §4.2.
type ActionKind uint8

// The action kinds. The first five edit Rp deterministically; Execute
// triggers the stochastic materialize-and-observe transition.
const (
	// ActSigmaCopy copies a materialized expression from Re into Rp topped
	// with Σ (§4.2, statistics option 1).
	ActSigmaCopy ActionKind = iota
	// ActSigmaWrap replaces a planned expression with its Σ-topped version
	// (§4.2, statistics option 2).
	ActSigmaWrap
	// ActJoinMats adds the join of two materialized expressions to Rp
	// (§4.2, join option 1).
	ActJoinMats
	// ActJoinPlanned replaces two Σ-free planned expressions with their join
	// (§4.2, join option 2).
	ActJoinPlanned
	// ActJoinMatPlanned replaces a Σ-free planned expression with its join
	// against a materialized expression (§4.2, join option 3).
	ActJoinMatPlanned
	// ActExecute executes and materializes every expression in Rp.
	ActExecute
	// ActMaterialize adds a bare (Σ-free) materialization of an Re
	// expression to Rp. It exists for single-relation queries, whose result
	// is a filtered scan rather than a join.
	ActMaterialize
)

// Action is one MDP action. A and B name the operands by alias set: for
// ActJoinMats two active Re entries, for ActJoinPlanned two planned trees'
// covers, for ActJoinMatPlanned the Re entry then the planned tree's cover,
// for the Σ actions and ActMaterialize the single target. Keys and strings
// are rendered only when asked for.
type Action struct {
	Kind ActionKind
	A, B query.AliasSet
}

// Key implements mcts.Action.
func (a Action) Key() string {
	switch a.Kind {
	case ActSigmaCopy:
		return "Σcopy:" + a.A.Key()
	case ActSigmaWrap:
		return "Σwrap:" + a.A.Key()
	case ActJoinMats:
		return "jm:" + a.A.Key() + "|" + a.B.Key()
	case ActJoinPlanned:
		return "jp:" + a.A.Key() + "|" + a.B.Key()
	case ActJoinMatPlanned:
		return "jmp:" + a.A.Key() + "|" + a.B.Key()
	case ActExecute:
		return "exec"
	case ActMaterialize:
		return "mat:" + a.A.Key()
	default:
		return fmt.Sprintf("act(%d)", a.Kind)
	}
}

// String renders the action for logs and traces.
func (a Action) String() string {
	switch a.Kind {
	case ActSigmaCopy:
		return "add Σ(" + a.A.Key() + ") to Rp"
	case ActSigmaWrap:
		return "wrap " + a.A.Key() + " with Σ"
	case ActJoinMats:
		return "join materialized " + a.A.Key() + " ⋈ " + a.B.Key()
	case ActJoinPlanned:
		return "join planned " + a.A.Key() + " ⋈ " + a.B.Key()
	case ActJoinMatPlanned:
		return "join materialized " + a.A.Key() + " with planned " + a.B.Key()
	case ActExecute:
		return "EXECUTE"
	case ActMaterialize:
		return "materialize " + a.A.Key()
	default:
		return a.Key()
	}
}

// predOpen reports whether join predicate p can still be consumed by a future
// join: no materialized expression and no planned tree already covers it.
func predOpen(s *State, p *query.JoinPred) bool {
	all := p.Aliases()
	for _, a := range s.Active {
		if all.SubsetOf(a) {
			return false
		}
	}
	for _, t := range s.Planned {
		if !t.SigmaCopy && all.SubsetOf(t.Tree.Aliases()) {
			return false
		}
	}
	return true
}

// usefulSigmaTerm reports whether collecting statistics over an expression
// covering cover would measure at least one join term that is (a) evaluable
// there, (b) not already applied inside the expression, (c) still open, and
// (d) not already measured over this expression or its minimal alias set.
func usefulSigmaTerm(s *State, q *query.Query, cover query.AliasSet) bool {
	var key string // rendered on first need
	for _, p := range q.Joins {
		for _, t := range [2]*query.Term{p.L, p.R} {
			if !t.Aliases.SubsetOf(cover) {
				continue
			}
			if p.ApplicableAt(cover) {
				continue // consumed inside the expression; stats are moot
			}
			if !predOpen(s, p) {
				continue
			}
			if key == "" {
				key = cover.Key()
			}
			if s.St.HasMeasured(t.ID, key) || s.St.HasMeasured(t.ID, t.Aliases.Key()) {
				continue
			}
			return true
		}
	}
	return false
}

// usefulSigmaCount reports whether materializing the expression would harden
// an unknown selection-bearing cardinality — the other reason to Σ-copy a
// base relation (§2.3: "scan the set S and collect statistics"). It is moot
// when a pending planned tree already contains the expression: executing that
// tree hardens the count for free.
func usefulSigmaCount(s *State, q *query.Query, cover query.AliasSet) bool {
	if _, known := s.St.Count(cover.Key()); known {
		return false
	}
	hasSel := false
	for _, p := range q.Sels {
		if p.T.Aliases.SubsetOf(cover) {
			hasSel = true
			break
		}
	}
	if !hasSel {
		return false
	}
	for _, t := range s.Planned {
		if !t.SigmaCopy && cover.SubsetOf(t.Tree.Aliases()) {
			return false
		}
	}
	return true
}

// legalActions enumerates A_s for the state (§4.2 with the pruning rules of
// DESIGN.md §3): joins must enable a predicate or make a term evaluable,
// non-Σ-copy planned trees stay pairwise alias-disjoint, Σ targets must be
// useful, and cross products open up only when nothing connected remains.
func legalActions(s *State, q *query.Query) []Action { return appendLegalActions(nil, s, q) }

// appendLegalActions appends A_s to acts, so a caller that only picks one
// action can reuse its buffer.
func appendLegalActions(acts []Action, s *State, q *query.Query) []Action {
	if s.Terminal() {
		return acts
	}

	// Materialized entries not consumed by a pending (non-Σ-copy) plan. The
	// scratch lists live on the stack for the usual handful of entries.
	var freeBuf [16]query.AliasSet
	freeMats := freeBuf[:0]
	for _, a := range s.Active {
		used := false
		for _, t := range s.Planned {
			if !t.SigmaCopy && t.Tree.Aliases().Intersects(a) {
				used = true
				break
			}
		}
		if !used {
			freeMats = append(freeMats, a)
		}
	}
	var openBuf [8]PlannedTree
	openPlanned := openBuf[:0]
	for _, t := range s.Planned {
		if !t.SigmaCopy && !t.Tree.Sigma {
			openPlanned = append(openPlanned, t)
		}
	}

	joinStart := len(acts)
	for i := 0; i < len(freeMats); i++ {
		for j := i + 1; j < len(freeMats); j++ {
			if q.Connected(freeMats[i], freeMats[j]) {
				acts = append(acts, Action{Kind: ActJoinMats, A: freeMats[i], B: freeMats[j]})
			}
		}
	}
	for i := 0; i < len(openPlanned); i++ {
		for j := i + 1; j < len(openPlanned); j++ {
			if q.Connected(openPlanned[i].Tree.Aliases(), openPlanned[j].Tree.Aliases()) {
				acts = append(acts, Action{Kind: ActJoinPlanned,
					A: openPlanned[i].Tree.Aliases(), B: openPlanned[j].Tree.Aliases()})
			}
		}
	}
	for _, m := range freeMats {
		for _, t := range openPlanned {
			if q.Connected(m, t.Tree.Aliases()) {
				acts = append(acts, Action{Kind: ActJoinMatPlanned, A: m, B: t.Tree.Aliases()})
			}
		}
	}
	// Cross-product fallback: only when no connected join exists anywhere.
	if len(acts) == joinStart && len(openPlanned) == 0 {
		for i := 0; i < len(freeMats); i++ {
			for j := i + 1; j < len(freeMats); j++ {
				acts = append(acts, Action{Kind: ActJoinMats, A: freeMats[i], B: freeMats[j]})
			}
		}
	}

	// Σ-copy from Re (allowed even for entries consumed by pending plans —
	// the copy is a side computation).
	for _, m := range s.Active {
		if s.findPlanned(m) >= 0 {
			continue // already planned (as Σ-copy or otherwise)
		}
		if usefulSigmaTerm(s, q, m) || usefulSigmaCount(s, q, m) {
			acts = append(acts, Action{Kind: ActSigmaCopy, A: m})
		}
	}
	// Σ-wrap a planned tree.
	for _, t := range openPlanned {
		if usefulSigmaTerm(s, q, t.Tree.Aliases()) {
			acts = append(acts, Action{Kind: ActSigmaWrap, A: t.Tree.Aliases()})
		}
	}

	// Single-relation queries: the only way to terminate is to materialize
	// the filtered scan itself.
	full := q.Aliases()
	if full.Size() == 1 && s.findPlanned(full) < 0 {
		acts = append(acts, Action{Kind: ActMaterialize, A: full})
	}

	if len(s.Planned) > 0 {
		acts = append(acts, Action{Kind: ActExecute})
	}
	return acts
}

// applyPlanEdit applies a deterministic (non-Execute) action, returning a new
// state that shares the statistics store.
func applyPlanEdit(s *State, q *query.Query, a Action) (*State, error) {
	n := s.clone(false)
	if err := n.edit(a); err != nil {
		return nil, err
	}
	return n, nil
}

// edit applies a deterministic (non-Execute) action to n in place.
func (n *State) edit(a Action) error {
	switch a.Kind {
	case ActSigmaCopy:
		i := n.findActive(a.A)
		if i < 0 {
			return fmt.Errorf("core: Σ-copy target %q not active", a.A.Key())
		}
		n.Planned = append(n.Planned, PlannedTree{
			Tree:      n.leaf(n.Active[i]).WithSigma(),
			SigmaCopy: true,
		})
	case ActSigmaWrap:
		i := n.findPlanned(a.A)
		if i < 0 {
			return fmt.Errorf("core: Σ-wrap target %q not planned", a.A.Key())
		}
		n.Planned[i].Tree = n.Planned[i].Tree.WithSigma()
	case ActJoinMats:
		i, j := n.findActive(a.A), n.findActive(a.B)
		if i < 0 || j < 0 {
			return fmt.Errorf("core: join-mats operands %q, %q not active", a.A.Key(), a.B.Key())
		}
		n.Planned = append(n.Planned, PlannedTree{
			Tree: plan.NewJoin(n.leaf(n.Active[i]), n.leaf(n.Active[j])),
		})
	case ActJoinPlanned:
		i, j := n.findPlanned(a.A), n.findPlanned(a.B)
		if i < 0 || j < 0 || i == j {
			return fmt.Errorf("core: join-planned operands %q, %q not planned", a.A.Key(), a.B.Key())
		}
		joined := plan.NewJoin(n.Planned[i].Tree, n.Planned[j].Tree)
		keep := n.Planned[:0]
		for k, t := range n.Planned {
			if k != i && k != j {
				keep = append(keep, t)
			}
		}
		n.Planned = append(keep, PlannedTree{Tree: joined})
	case ActMaterialize:
		i := n.findActive(a.A)
		if i < 0 {
			return fmt.Errorf("core: materialize target %q not active", a.A.Key())
		}
		n.Planned = append(n.Planned, PlannedTree{Tree: n.leaf(n.Active[i])})
	case ActJoinMatPlanned:
		i := n.findActive(a.A)
		j := n.findPlanned(a.B)
		if i < 0 || j < 0 {
			return fmt.Errorf("core: join-mat-planned operands %q, %q missing", a.A.Key(), a.B.Key())
		}
		n.Planned[j] = PlannedTree{Tree: plan.NewJoin(n.leaf(n.Active[i]), n.Planned[j].Tree)}
	default:
		return fmt.Errorf("core: applyPlanEdit on %v", a)
	}
	return nil
}

// settleExecution updates the Re frontier after all of Rp has been
// materialized: every non-Σ-copy tree replaces the active entries it
// consumed; Σ-copies leave the frontier unchanged. Planned becomes empty.
func settleExecution(s *State) {
	replaced := false
	for _, t := range s.Planned {
		if t.Tree.Aliases().Equal(s.full) {
			s.done = true
		}
		if t.SigmaCopy {
			continue
		}
		cover := t.Tree.Aliases()
		kept := make([]query.AliasSet, 0, len(s.Active)+1)
		for _, a := range s.Active {
			if !a.SubsetOf(cover) {
				kept = append(kept, a)
			}
		}
		s.Active = append(kept, cover)
		replaced = true
	}
	s.Planned = nil
	if replaced {
		s.sortActive()
	}
}
