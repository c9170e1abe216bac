package core

import (
	"fmt"
	"math"
	"math/rand"

	"monsoon/internal/cost"
	"monsoon/internal/mcts"
	"monsoon/internal/plan"
	"monsoon/internal/prior"
	"monsoon/internal/query"
	"monsoon/internal/randx"
	"monsoon/internal/stats"
)

// Model is the MDP simulator MCTS plans against (§4.3). Plan edits transition
// deterministically; EXECUTE samples every missing statistic from the prior,
// derives the resulting cardinalities with the recursive generation
// algorithm, and returns the negated §4.4 cost as reward.
type Model struct {
	Q     *query.Query
	Prior prior.Prior
	Rng   *rand.Rand
	// UniformRollout switches the default policy from the greedy completion
	// documented on RolloutAction to uniform random action selection. It
	// exists for the ablation experiment: uniform rollouts hide the value of
	// information from shallow searches.
	UniformRollout bool
	// Profile, when non-nil, makes EXECUTE's reward the negated calibrated
	// plan cost (seconds) instead of the flat §4.4 object count; the rollout
	// policy's greedy join ordering still compares cardinalities, which the
	// calibration leaves untouched.
	Profile *cost.CostProfile
	// Shards exposes the catalog's shard layout to EXECUTE's cost deriver, so
	// the search prices a reshuffled hash build above a co-partitioned one and
	// the reshuffle-vs-local choice becomes a real action trade-off. Nil (or
	// an unsharded layout) keeps simulation bit-identical to pre-sharding.
	Shards cost.ShardLayout

	// Scratch reused across calls instead of allocated: the legal actions
	// being listed (the rollout policy returns a pointer into them, valid
	// until the next call), the rollout policy's deriver (over an overlay
	// it resets for every call), the overlay rollout EXECUTEs write to (one
	// rollout's states are dead when the next begins), and EXECUTE's prior
	// sampler. A Model is driven by one goroutine (Fork gives each search
	// shard its own).
	acts     []Action
	rollDV   *cost.Deriver
	rollExec *stats.Store
	sample   cost.MissFn
}

var (
	_ mcts.Model        = (*Model)(nil)
	_ mcts.RolloutModel = (*Model)(nil)
	_ mcts.Reuser       = (*Model)(nil)
	_ mcts.Forker       = (*Model)(nil)
)

// Fork implements mcts.Forker: an independent simulator for one search
// shard. The query and prior are immutable and shared; the prior-sampling
// RNG — the model's only mutable state — is private to the fork, seeded from
// seed, so shards step their simulators concurrently without touching each
// other's sample streams.
func (m *Model) Fork(seed int64) mcts.Model {
	return &Model{Q: m.Q, Prior: m.Prior, Rng: randx.New(seed),
		UniformRollout: m.UniformRollout, Profile: m.Profile, Shards: m.Shards}
}

// Legal implements mcts.Model.
// The actions are handed out as pointers into one slice, so listing them
// allocates twice rather than once per action.
func (m *Model) Legal(s mcts.State) []mcts.Action {
	m.acts = appendLegalActions(m.acts[:0], s.(*State), m.Q)
	acts := append([]Action(nil), m.acts...)
	out := make([]mcts.Action, len(acts))
	for i := range acts {
		out[i] = &acts[i]
	}
	return out
}

// asAction reads an action the model handed out (*Action) or one a caller
// built (Action).
func asAction(a mcts.Action) Action {
	if p, ok := a.(*Action); ok {
		return *p
	}
	return a.(Action)
}

// Step implements mcts.Model. It never mutates the input state: plan edits
// clone the structure (sharing statistics), EXECUTE also writes the sampled
// and hardened statistics to an overlay of the input's store.
func (m *Model) Step(s mcts.State, a mcts.Action) (mcts.State, float64, bool) {
	st := s.(*State)
	act := asAction(a)
	if act.Kind != ActExecute {
		ns, err := applyPlanEdit(st, m.Q, act)
		if err != nil {
			panic(err) // planner bug: actions come from legalActions
		}
		return ns, 0, false
	}
	ns := st.clone(true)
	return ns, m.execute(ns), true
}

// StepReuse implements mcts.Reuser: Step, advancing s itself. Plan edits
// rewrite its Planned slice, which no other state shares. The first EXECUTE
// of a rollout writes to the model's scratch overlay, reset over s's store
// (which the tree may share); later ones write to that overlay directly.
func (m *Model) StepReuse(s mcts.State, a mcts.Action) (mcts.State, float64) {
	st := s.(*State)
	act := asAction(a)
	if act.Kind != ActExecute {
		if err := st.edit(act); err != nil {
			panic(err) // planner bug: actions come from legalActions
		}
		return st, 0
	}
	if st.St != m.rollExec {
		if m.rollExec == nil {
			m.rollExec = &stats.Store{}
		}
		m.rollExec.ResetOverlay(st.St)
		st.St = m.rollExec
	}
	return st, m.execute(st)
}

// execute simulates EXECUTE on ns, whose store is an overlay it may write:
// it prices every planned tree, samples the statistics they need, hardens
// what their Σ operators measure, settles the frontier and returns the
// reward.
func (m *Model) execute(ns *State) float64 {
	if m.sample == nil {
		m.sample = m.priorMiss()
	}
	dv := &cost.Deriver{Q: m.Q, St: ns.St, Miss: m.sample, Profile: m.Profile, Layout: m.Shards}
	total := 0.0
	for _, t := range ns.Planned {
		total += dv.PlanCost(t.Tree)
		if t.Tree.Sigma {
			m.simSigma(dv, ns, t.Tree)
		}
	}
	settleExecution(ns)
	return -total
}

// priorMiss adapts the prior to the Deriver's MissFn: the stochastic
// transition samples the hidden world.
func (m *Model) priorMiss() cost.MissFn {
	return func(_ *query.Term, _, _ string, cExpr, cPartner float64) float64 {
		return m.Prior.Sample(m.Rng, cExpr, cPartner)
	}
}

// meanMiss resolves missing statistics with the prior's expectation. The
// rollout policy must use this, never priorMiss: a blind plan's quality has
// to be evaluated without access to the very statistics the world will only
// reveal at execution, otherwise simulation systematically undervalues Σ
// probes (the policy would be an oracle and information would be worthless).
func (m *Model) meanMiss() cost.MissFn {
	return func(_ *query.Term, _, _ string, cExpr, cPartner float64) float64 {
		return m.Prior.Mean(cExpr, cPartner)
	}
}

// simSigma simulates the Σ operator: every open join term evaluable over the
// materialized expression gets its distinct count hardened — resolved through
// the same lookup chain the cost model uses (so values already sampled while
// deriving this transition's counts stay consistent) and promoted to a
// measured statistic in the sampled world.
func (m *Model) simSigma(dv *cost.Deriver, ns *State, tree *plan.Node) {
	cover := tree.Aliases()
	key := tree.Key()
	cE, ok := ns.St.Count(key)
	if !ok {
		cE = dv.NodeCount(tree.WithoutSigma())
	}
	for _, p := range m.Q.Joins {
		for ti, t := range [2]*query.Term{p.L, p.R} {
			if !t.Aliases.SubsetOf(cover) || p.ApplicableAt(cover) {
				continue
			}
			if ns.St.HasMeasured(t.ID, key) {
				continue
			}
			other := p.R
			if ti == 1 {
				other = p.L
			}
			pKey := other.Aliases.Key()
			cP := m.partnerCount(dv, ns, other.Aliases)
			d := dv.Distinct(t, key, pKey, cE, cP)
			ns.St.SetMeasured(t.ID, key, d)
		}
	}
}

// partnerCount estimates the cardinality of the minimal expression covering
// a term's aliases, for parameterizing the prior: a known count wins, a
// single alias estimates its filtered scan, a multi-alias set falls back to
// the product of its members' filtered estimates.
func (m *Model) partnerCount(dv *cost.Deriver, s *State, aliases query.AliasSet) float64 {
	if c, ok := dv.St.Count(aliases.Key()); ok {
		return c
	}
	prod := 1.0
	for r := aliases; !r.IsEmpty(); r = r.Minus(r.Lowest()) {
		prod *= dv.NodeCount(s.leaf(r.Lowest()))
	}
	return prod
}

// RolloutAction implements mcts.RolloutModel with a greedy default policy:
// finish the query with the join order that looks cheapest under the rollout
// world's statistics (hardened values where known, prior samples elsewhere),
// then EXECUTE. Σ actions are never taken during rollouts — the tree policy
// explores them — so a rollout directly prices "commit now with what this
// world knows", which is exactly what makes the value of information visible
// to the search: a subtree below a simulated Σ completes with the hardened
// statistic, a subtree that guessed completes blind.
func (m *Model) RolloutAction(s mcts.State, rng *rand.Rand) mcts.Action {
	st := s.(*State)
	m.acts = appendLegalActions(m.acts[:0], st, m.Q)
	acts := m.acts
	if len(acts) == 0 {
		return nil
	}
	if m.UniformRollout {
		return &acts[rng.Intn(len(acts))]
	}
	var dv *cost.Deriver // lazily built: most states have join candidates
	bestJoin := -1
	bestCount := math.Inf(1)
	execIdx := -1
	for i, a := range acts {
		switch a.Kind {
		case ActExecute:
			execIdx = i
		case ActJoinMats, ActJoinPlanned, ActJoinMatPlanned:
			if dv == nil {
				if m.rollDV == nil {
					m.rollDV = &cost.Deriver{Q: m.Q, St: &stats.Store{}, Miss: m.meanMiss()}
				}
				dv = m.rollDV
				dv.St.ResetOverlay(st.St)
			}
			l, r, err := joinOperands(st, a)
			if err != nil {
				continue
			}
			if c := dv.JoinCount(l, r); c < bestCount {
				bestCount = c
				bestJoin = i
			}
		}
	}
	if bestJoin >= 0 {
		return &acts[bestJoin]
	}
	if execIdx >= 0 {
		return &acts[execIdx]
	}
	return &acts[rng.Intn(len(acts))]
}

// joinOperands returns the two trees a join action would join: planned
// trees as they stand (a Σ marker does not change a count) and active
// expressions as leaves.
func joinOperands(s *State, a Action) (l, r *plan.Node, err error) {
	pick := func(kind ActionKind, set query.AliasSet) (*plan.Node, error) {
		if kind == ActJoinPlanned {
			if i := s.findPlanned(set); i >= 0 {
				return s.Planned[i].Tree, nil
			}
			return nil, fmt.Errorf("core: planned %q missing", set.Key())
		}
		if i := s.findActive(set); i >= 0 {
			return s.leaf(s.Active[i]), nil
		}
		return nil, fmt.Errorf("core: active %q missing", set.Key())
	}
	lKind, rKind := ActJoinMats, ActJoinMats
	switch a.Kind {
	case ActJoinMats:
	case ActJoinPlanned:
		lKind, rKind = ActJoinPlanned, ActJoinPlanned
	case ActJoinMatPlanned:
		rKind = ActJoinPlanned
	default:
		return nil, nil, fmt.Errorf("core: %v is not a join action", a)
	}
	if l, err = pick(lKind, a.A); err != nil {
		return nil, nil, err
	}
	if r, err = pick(rKind, a.B); err != nil {
		return nil, nil, err
	}
	return l, r, nil
}
