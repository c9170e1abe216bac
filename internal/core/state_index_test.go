package core

import (
	"testing"

	"monsoon/internal/query"
	"monsoon/internal/randx"
)

// checkIndexes verifies the mask lookups agree exactly with the slices they
// search: every entry is found at its own index (so no two entries share an
// alias set), and the empty set, which no entry covers, misses.
func checkIndexes(t *testing.T, label string, s *State) {
	t.Helper()
	for i, tr := range s.Planned {
		if got := s.findPlanned(tr.Tree.Aliases()); got != i {
			t.Fatalf("%s: findPlanned(%q) = %d, slice index %d", label, tr.Tree.Key(), got, i)
		}
	}
	for i, a := range s.Active {
		if got := s.findActive(a); got != i {
			t.Fatalf("%s: findActive(%q) = %d, slice index %d", label, a.Key(), got, i)
		}
	}
	if s.findPlanned(query.AliasSet{}) != -1 || s.findActive(query.AliasSet{}) != -1 {
		t.Fatalf("%s: absent set must return -1", label)
	}
}

// TestIndexMapsStayConsistent walks random legal-action trajectories —
// every plan-edit kind plus EXECUTE settlement — and asserts after each
// transition that the Planned/Active lookups find every entry at its index.
// This is the invariant the O(1) find* lookups rely on.
func TestIndexMapsStayConsistent(t *testing.T) {
	cat, q := fixture()
	for seed := int64(0); seed < 20; seed++ {
		rng := randx.New(seed)
		s, _ := initState(q, cat)
		checkIndexes(t, "initial", s)
		for step := 0; step < 40 && !s.Terminal(); step++ {
			acts := legalActions(s, q)
			if len(acts) == 0 {
				break
			}
			a := acts[rng.Intn(len(acts))]
			if a.Kind == ActExecute {
				// Mimic the driver's settlement without running the engine:
				// the frontier update is all that touches the indexes.
				s = s.clone(true)
				settleExecution(s)
			} else {
				next, err := applyPlanEdit(s, q, a)
				if err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				// The edit must not have corrupted the parent either.
				checkIndexes(t, "parent after "+a.Key(), s)
				s = next
			}
			checkIndexes(t, a.Key(), s)
		}
	}
}
