package core

import (
	"testing"

	"monsoon/internal/bench/tpch"
	"monsoon/internal/engine"
	"monsoon/internal/mcts"
	"monsoon/internal/prior"
	"monsoon/internal/query"
	"monsoon/internal/randx"
	"monsoon/internal/stats"
)

// multiTreeState walks the fixture to a state with two planned trees (a
// Σ-copy and a join) over statistics an earlier simulated EXECUTE wrote to
// an overlay.
func multiTreeState(t *testing.T) *State {
	t.Helper()
	cat, q := fixture()
	s, _ := initState(q, cat)
	m := &Model{Q: q, Prior: prior.SpikeAndSlab{}, Rng: randx.New(5)}
	var cur mcts.State = s
	for _, a := range []Action{
		{Kind: ActSigmaCopy, A: q.Set("S")},
		{Kind: ActExecute},
		{Kind: ActSigmaCopy, A: q.Set("T")},
		{Kind: ActJoinMats, A: q.Set("R"), B: q.Set("S")},
	} {
		cur, _, _ = m.Step(cur, a)
	}
	st := cur.(*State)
	if len(st.Planned) != 2 || st.St.AssumedEntries()+st.St.MeasuredEntries() == 0 {
		t.Fatalf("fixture walk ended in %s", st)
	}
	return st
}

func TestOutcomeKeyDoesNotAllocate(t *testing.T) {
	s := multiTreeState(t)
	if allocs := testing.AllocsPerRun(100, func() { _ = s.OutcomeKey() }); allocs != 0 {
		t.Errorf("OutcomeKey allocated %.1f times per call", allocs)
	}
}

// TestOutcomeKeyPartitionsLikeString walks the MDP at random, sampling
// EXECUTE outcomes from the prior, and checks that the digest and the
// string form split the visited states identically: equal keys exactly
// when equal strings.
func TestOutcomeKeyPartitionsLikeString(t *testing.T) {
	check := func(name string, q *query.Query, initial func() *State) {
		m := &Model{Q: q, Prior: prior.SpikeAndSlab{}, Rng: randx.New(17)}
		byKey := map[uint64]string{}
		byString := map[string]uint64{}
		for seed := int64(0); seed < 40; seed++ {
			rng := randx.New(seed)
			var cur mcts.State = initial()
			for steps := 0; !cur.Terminal() && steps < 100; steps++ {
				s := cur.(*State)
				key, str := s.OutcomeKey(), s.OutcomeString()
				if prev, ok := byKey[key]; ok && prev != str {
					t.Fatalf("%s: key %x covers %q and %q", name, key, prev, str)
				}
				if prev, ok := byString[str]; ok && prev != key {
					t.Fatalf("%s: %q has keys %x and %x", name, str, prev, key)
				}
				byKey[key], byString[str] = str, key
				acts := legalActions(s, q)
				cur, _, _ = m.Step(cur, acts[rng.Intn(len(acts))])
			}
		}
		if len(byKey) < 50 {
			t.Errorf("%s: only %d distinct outcomes visited", name, len(byKey))
		}
	}
	cat, q := fixture()
	check("fixture", q, func() *State { s, _ := initState(q, cat); return s })

	tcat := tpch.Generate(tpch.Config{ScaleFactor: 0.001, Seed: 1})
	eng := engine.New(tcat)
	for _, tq := range tpch.Queries()[:3] {
		check(tq.Name, tq, func() *State {
			st := stats.New()
			eng.SeedBaseStats(tq, st)
			return NewInitialState(tq, st)
		})
	}
}
