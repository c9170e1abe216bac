// Package engine executes plan trees against stored tables: scans with
// pushed-down selections, hash joins on opaque UDF terms, nested-loop
// products with residual predicates (the only option when a multi-table UDF
// crosses the join), materialization of tree roots, and the Σ statistics
// collection operator (§4.2), which takes one extra pass over a materialized
// result running HyperLogLog sketches over every evaluable UDF term.
//
// Operators are connected as a streaming batch pipeline (stream.go): rows
// flow between stages in bounded batches, so only pipeline-breakers (the
// hash-join build side, the tree root's materialize) hold a whole
// intermediate in memory at once.
//
// The engine's accounting is aligned with the paper's cost model (§4.4):
// Produced counts the objects emitted by every operator — filtered leaf
// outputs, join outputs, and the extra Σ pass — so that the optimizer's
// simulated cost and the engine's real cost are the same quantity.
package engine

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"monsoon/internal/expr"
	"monsoon/internal/obs"
	"monsoon/internal/plan"
	"monsoon/internal/query"
	"monsoon/internal/sketch"
	"monsoon/internal/stats"
	"monsoon/internal/table"
	"monsoon/internal/value"
)

// ErrBudget is returned when a query exceeds its wall-clock deadline or its
// tuple budget; the harness reports it as a timeout.
var ErrBudget = errors.New("engine: execution budget exhausted")

// Budget bounds one query execution. Zero values disable a bound. A single
// Budget is shared across every EXECUTE step of a multi-step query, and —
// since the engine's partitionable operators charge it from worker
// goroutines — its accounting is atomic. Deadline and MaxTuples must be set
// before execution starts and not mutated afterwards.
type Budget struct {
	Deadline  time.Time
	MaxTuples float64

	produced atomic.Int64
	checkCtr atomic.Int64
}

// Charge accounts n produced tuples and reports ErrBudget when a bound is
// exceeded. Safe for concurrent use. The deadline is polled roughly every
// thousand tuples to keep it off the per-tuple path; a concurrent reset may
// occasionally stretch the polling interval, never the tuple bound.
func (b *Budget) Charge(n int) error {
	if b == nil {
		return nil
	}
	p := b.produced.Add(int64(n))
	if b.MaxTuples > 0 && float64(p) > b.MaxTuples {
		return ErrBudget
	}
	inc := int64(n)
	if inc < 1 {
		inc = 1
	}
	if b.checkCtr.Add(inc) >= 1024 {
		b.checkCtr.Store(0)
		if !b.Deadline.IsZero() && time.Now().After(b.Deadline) {
			return ErrBudget
		}
	}
	return nil
}

// Produced reports the tuples charged so far.
func (b *Budget) Produced() float64 {
	if b == nil {
		return 0
	}
	return float64(b.produced.Load())
}

// SigmaObs is one distinct-value measurement produced by a Σ operator.
type SigmaObs struct {
	Term int
	Expr string
	D    float64
}

// ExecResult reports what one tree execution observed.
type ExecResult struct {
	// Produced is the total number of objects emitted by the tree's
	// operators, including the extra Σ pass (the §4.4 cost).
	Produced float64
	// Counts holds the hardened cardinality of every node in the tree,
	// keyed by expression (alias-set) key.
	Counts map[string]float64
	// Times holds the inclusive wall time of every node in the tree, keyed
	// like Counts — the per-operator numbers EXPLAIN ANALYZE annotates.
	Times map[string]time.Duration
	// Sigma holds distinct-value measurements when the root carried Σ.
	Sigma []SigmaObs
	// SigmaTime is the portion of wall time spent in the Σ pass.
	SigmaTime time.Duration
	// PeakBytes is the peak heap allocation observed while the tree
	// drained, sampled every few batches. Zero unless Engine.Metrics is
	// set (sampling stops the world briefly, so it is strictly opt-in).
	PeakBytes float64
}

// ExecConfig is the per-execution observation and tuning state. It used to
// live as mutable fields on Engine, which made two concurrent Sessions on one
// shared engine clobber each other's tracer and knobs; now every Session (and
// every daemon request) carries its own copy inside an Exec scope, and the
// engine's immutable parts (catalog, HLL precision) stay shared.
type ExecConfig struct {
	// Obs, when non-nil, receives one span per operator (scan, reuse,
	// hash-build/probe, nested loop, Σ pass) with rows-in/rows-out and wall
	// time. Nil (the default) costs nothing: every tracer call no-ops.
	Obs *obs.Tracer
	// Parallelism caps the worker count of the partitionable operators
	// (filter scans, hash-join probe, Σ pass): 0 means
	// runtime.GOMAXPROCS(0), 1 forces the exact serial legacy path. Every
	// setting produces bit-identical results — same row order, same Σ
	// estimates, same budget totals — so the knob trades wall time only.
	Parallelism int
	// BatchSize caps the rows one pipeline batch carries between streaming
	// operators: 0 means DefaultBatchSize, negative disables batching (each
	// operator emits its whole output at once — the materialized legacy
	// memory profile). Results, row order, budget totals, and span
	// accounting are bit-identical at every setting; only peak memory and
	// wall time change.
	BatchSize int
	// Metrics, when non-nil, receives the engine's execution gauges —
	// currently monsoon.exec.peak_bytes, the peak heap observed while a
	// tree drains, sampled every few batches via runtime.ReadMemStats.
	// Nil (the default) keeps memory sampling entirely off the hot path.
	Metrics *obs.Registry
}

// Exec is one execution scope over a shared Engine: its own ExecConfig plus
// its own materialized-expression store (the MDP's Re set). Scopes are cheap
// to create, not safe for concurrent use individually, and fully independent
// of each other — N Sessions over one Engine get N Execs and never share
// mutable state.
type Exec struct {
	ExecConfig
	eng  *Engine
	mats map[string]*table.Relation
}

// Engine executes plans for one dataset. The catalog and HLL precision are
// shared, read-only state; Obs/Parallelism/BatchSize/Metrics are convenience
// defaults for the single-tenant calls below (ExecTree and friends on Engine
// itself), re-read on every call. Concurrent users must instead carve out
// isolated scopes with NewExec.
type Engine struct {
	Cat *table.Catalog
	// HLLPrecision configures Σ sketches; 0 means the default (14).
	HLLPrecision uint8
	// Obs, Parallelism, BatchSize, Metrics configure the engine's default
	// execution scope; see ExecConfig for their semantics. Mutating them
	// between single-tenant queries is fine; mutating them while another
	// goroutine executes through the same Engine is not — use NewExec.
	Obs         *obs.Tracer
	Parallelism int
	BatchSize   int
	Metrics     *obs.Registry

	def *Exec
}

// New creates an engine over a catalog of stored base tables.
func New(cat *table.Catalog) *Engine {
	e := &Engine{Cat: cat}
	e.def = &Exec{eng: e, mats: make(map[string]*table.Relation)}
	return e
}

// NewExec creates an isolated execution scope: the given config plus a fresh
// materialization store. Zero-valued config fields fall back to the engine's
// defaults (matching the old Session behavior of only overriding fields the
// caller set); note that this means an Exec cannot select "0 = machine width"
// parallelism when the engine default is nonzero — pass the explicit width
// instead.
func (e *Engine) NewExec(cfg ExecConfig) *Exec {
	if cfg.Obs == nil {
		cfg.Obs = e.Obs
	}
	if cfg.Parallelism == 0 {
		cfg.Parallelism = e.Parallelism
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = e.BatchSize
	}
	if cfg.Metrics == nil {
		cfg.Metrics = e.Metrics
	}
	return &Exec{ExecConfig: cfg, eng: e, mats: make(map[string]*table.Relation)}
}

// exec syncs the default scope's config from the engine's public fields and
// returns it — the single-tenant compatibility path behind Engine.ExecTree.
func (e *Engine) exec() *Exec {
	e.def.ExecConfig = ExecConfig{Obs: e.Obs, Parallelism: e.Parallelism, BatchSize: e.BatchSize, Metrics: e.Metrics}
	return e.def
}

// Engine returns the shared engine this scope executes against.
func (e *Exec) Engine() *Engine { return e.eng }

// Materialized returns the materialized relation for an expression key.
func (e *Exec) Materialized(key string) (*table.Relation, bool) {
	r, ok := e.mats[key]
	return r, ok
}

// Register stores a materialized relation under an expression key. ExecTree
// registers roots automatically; tests and the baselines use this directly.
func (e *Exec) Register(key string, r *table.Relation) { e.mats[key] = r }

// Reset drops all materialized intermediates (between queries).
func (e *Exec) Reset() { e.mats = make(map[string]*table.Relation) }

// Materialized reads the default scope's store (single-tenant path).
func (e *Engine) Materialized(key string) (*table.Relation, bool) { return e.def.Materialized(key) }

// Register writes into the default scope's store (single-tenant path).
func (e *Engine) Register(key string, r *table.Relation) { e.def.Register(key, r) }

// Reset clears the default scope's store (single-tenant path).
func (e *Engine) Reset() { e.def.Reset() }

// SeedBaseStats records the raw cardinality of every base table referenced
// by q into st — the statistics assumed known at the start (§4.1).
func (e *Engine) SeedBaseStats(q *query.Query, st *stats.Store) {
	for _, r := range q.Rels {
		st.SetCount(stats.RawKey(r.Alias), float64(e.Cat.MustGet(r.Table).Count()))
	}
}

// ExecTree executes one plan tree through the default scope, re-reading the
// engine's Obs/Parallelism/BatchSize/Metrics fields — the single-tenant path
// the CLIs and tests use. Concurrent callers must use NewExec scopes instead.
func (e *Engine) ExecTree(q *query.Query, n *plan.Node, budget *Budget) (*table.Relation, *ExecResult, error) {
	return e.exec().ExecTree(q, n, budget)
}

// ExecTree executes one plan tree through the streaming batch pipeline
// (stream.go), materializes and registers its root, and returns the result
// relation plus observations. The root materialize is a deliberate pipeline
// breaker: the MDP's Re store and the plan cache key whole relations. Budget
// overruns abort with ErrBudget; partial results are discarded but counts
// already observed are returned so the harness can report progress.
func (e *Exec) ExecTree(q *query.Query, n *plan.Node, budget *Budget) (*table.Relation, *ExecResult, error) {
	res := &ExecResult{Counts: make(map[string]float64), Times: make(map[string]time.Duration)}
	msp := e.Obs.Start(obs.KMaterialize, n.String()).SetStr("expr", n.Key())
	it, schema, err := e.open(q, n, budget, res, nil)
	if err != nil {
		msp.SetStr("err", err.Error()).SetProduced(res.Produced).End()
		return nil, res, err
	}
	sampler := e.peakSampler(res)
	var out []table.Row
	for {
		b, err := it.Next()
		if err != nil {
			it.Close(err)
			sampler.finish()
			msp.SetStr("err", err.Error()).SetProduced(res.Produced).End()
			return nil, res, err
		}
		if b == nil {
			break
		}
		out = append(out, b...)
		sampler.sample()
	}
	it.Close(nil)
	rel := table.NewRelation(n.Key(), schema, out)
	if n.Sigma {
		start := time.Now()
		if err := e.collectSigma(q, n, rel, budget, res); err != nil {
			sampler.finish()
			msp.SetStr("err", err.Error()).SetProduced(res.Produced).End()
			return nil, res, err
		}
		res.SigmaTime = time.Since(start)
	}
	sampler.finish()
	e.mats[n.Key()] = rel
	msp.SetRows(0, rel.Count()).SetProduced(res.Produced).End()
	return rel, res, nil
}

// boundSel is one pushed-down selection bound to a concrete schema.
type boundSel struct {
	b *expr.Binding
	k value.Value
}

// bucket chains the build rows of one join-key value; hashTable maps key
// hashes to their (collision-chained) buckets. After the build phase the
// table is read-only, so probe workers share it without locks.
type bucket struct {
	key  value.Value
	rows []int
}

type hashTable map[uint64][]bucket

// insert chains build-row index i under key k: the key's bucket if one
// exists in the hash's collision chain, a fresh bucket appended otherwise.
// Inserting rows in ascending index order yields chains in first-occurrence
// order with ascending row lists — the invariant the partitioned parallel
// build reproduces by merging per-worker sub-tables in worker order.
func (ht hashTable) insert(k value.Value, i int) {
	ht.insertHash(k.Hash(), k, i)
}

// insertHash is insert with the key hash already computed; the sharded
// table computes it once for routing and reuses it for the chain lookup.
func (ht hashTable) insertHash(h uint64, k value.Value, i int) {
	bs := ht[h]
	for bi := range bs {
		if bs[bi].key.Equal(k) {
			bs[bi].rows = append(bs[bi].rows, i)
			return
		}
	}
	ht[h] = append(bs, bucket{key: k, rows: []int{i}})
}

// shardedTable splits a hash-join build across S sub-tables routed by the
// full key hash (subs[h%S]). Equal hashes always land in the same sub-table
// and routing never reorders the insertion stream within a sub-table, so
// collision chains keep the serial first-occurrence order with ascending
// row lists; the probe side streams in its original order and routes each
// key the same way, which makes join output bit-identical to the unsharded
// build for any S. S == 1 is the legacy layout: subs[0] is the one table.
type shardedTable struct {
	subs []hashTable
}

func newShardedTable(s, sizeHint int) *shardedTable {
	t := &shardedTable{subs: make([]hashTable, s)}
	for i := range t.subs {
		t.subs[i] = make(hashTable, sizeHint/s+1)
	}
	return t
}

func (t *shardedTable) insert(k value.Value, i int) {
	h := k.Hash()
	t.subs[h%uint64(len(t.subs))].insertHash(h, k, i)
}

// chains returns the collision chain for a probe key's hash.
func (t *shardedTable) chains(h uint64) []bucket {
	return t.subs[h%uint64(len(t.subs))][h]
}

// shardCount reports the catalog's shard layout width (1 = unsharded); the
// exchange paths below key every behavior change off it so an unsharded
// catalog takes exactly the legacy code paths.
func (e *Exec) shardCount() int { return e.eng.Cat.ShardCount() }

// collectSigma runs the Σ pass: one more scan of the materialized result,
// feeding every evaluable UDF term through an HLL sketch. Identity terms are
// included — they are just another opaque function to the optimizer.
func (e *Exec) collectSigma(q *query.Query, n *plan.Node, rel *table.Relation, budget *Budget, res *ExecResult) error {
	p := e.eng.HLLPrecision
	if p == 0 {
		p = 14
	}
	type tracked struct {
		term *query.Term
		b    *expr.Binding
		h    *sketch.HLL
	}
	var ts []tracked
	for _, t := range q.Terms() {
		if !t.Aliases.SubsetOf(n.Aliases()) {
			continue
		}
		b, ok := t.Fn.Bind(rel.Schema)
		if !ok {
			continue
		}
		ts = append(ts, tracked{term: t, b: b, h: sketch.NewHLL(p)})
	}
	sp := e.Obs.Start(obs.KSigma, n.Key()).SetNum("terms", float64(len(ts)))
	if s := e.shardCount(); s > 1 && len(ts) > 0 {
		// Partial-Σ exchange: one HLL pass per storage shard, merged
		// register-wise. The register merge is a per-register max, so the
		// merged estimates equal the single-sketch estimates for any S.
		sp.SetNum("shards", float64(s))
		terms := make([]*query.Term, len(ts))
		for i, t := range ts {
			terms[i] = t.term
		}
		merged, err := e.shardedSigma(sp, rel, terms, p, s, budget)
		if err != nil {
			sp.SetRows(rel.Count(), 0).SetStr("err", err.Error()).End()
			return err
		}
		if e.Metrics != nil {
			e.Metrics.Counter("monsoon.exchange.sigma.partials").Add(int64(s))
		}
		for i := range ts {
			ts[i].h = merged[i]
		}
	} else if w := e.workers(rel.Count()); w > 1 && len(ts) > 0 {
		sp.SetNum("workers", float64(w))
		terms := make([]*query.Term, len(ts))
		for i, t := range ts {
			terms[i] = t.term
		}
		merged, err := parallelSigma(rel, terms, p, budget, w, e.tracedRunner(sp))
		if err != nil {
			sp.SetRows(rel.Count(), 0).SetStr("err", err.Error()).End()
			return err
		}
		for i := range ts {
			ts[i].h = merged[i]
		}
	} else {
		for _, row := range rel.Rows {
			if err := budget.Charge(1); err != nil {
				sp.SetRows(rel.Count(), 0).SetStr("err", err.Error()).End()
				return err
			}
			for _, t := range ts {
				v := t.b.Eval(row)
				if v.IsNull() {
					continue
				}
				t.h.Add(v.Hash())
			}
		}
	}
	res.Produced += float64(rel.Count()) // the extra pass, §4.4
	for _, t := range ts {
		res.Sigma = append(res.Sigma, SigmaObs{Term: t.term.ID, Expr: n.Key(), D: t.h.Estimate()})
	}
	sp.SetRows(rel.Count(), len(ts)).SetProduced(float64(rel.Count())).End()
	return nil
}

// FinalAggregate computes the query's output over the completed join result.
func FinalAggregate(q *query.Query, rel *table.Relation) (float64, error) {
	switch q.Out.Kind {
	case query.AggCount:
		return float64(rel.Count()), nil
	case query.AggSum:
		pos, ok := rel.Schema.Lookup(q.Out.Attr)
		if !ok {
			return 0, fmt.Errorf("engine: SUM attribute %q not in result schema", q.Out.Attr)
		}
		sum := 0.0
		for _, row := range rel.Rows {
			sum += row[pos].AsFloat()
		}
		return sum, nil
	default:
		return 0, fmt.Errorf("engine: unknown aggregate kind %d", q.Out.Kind)
	}
}
