// Streaming batch pipeline: every operator consumes and produces fixed-size
// row batches through the rowIter interface instead of whole materialized
// relations, so filter → join → filter stages of one tree overlap and peak
// memory is bounded by batch size × pipeline depth rather than intermediate
// cardinality. Two stages stay pipeline-breakers by construction: the
// hash-join build side (the hash table needs every build row before the first
// probe) and the tree root's final materialize (the MDP's Re store and the
// plan cache key the full relation). The Σ pass runs over that materialized
// root, as before.
//
// Determinism contract: a streaming run is bit-identical to the materialized
// one — same output rows in the same order, same budget totals, same span
// kinds with the same ids and the same rows/produced accounting — at every
// batch size and worker count. Batches preserve input order (each output
// batch is the join of one input batch, emitted in input order; parallel
// fan-outs stitch per-worker buffers in partition order as they always did),
// and operator spans are opened in the exact order the materialized engine
// opened them, accumulating rows across batches instead of setting them once.
// The only telemetry that legitimately varies with batch size is the number
// of KWorker spans (one fan-out per large-enough batch instead of one per
// operator), which is already the one machine-dependent span kind.
package engine

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"monsoon/internal/expr"
	"monsoon/internal/obs"
	"monsoon/internal/plan"
	"monsoon/internal/query"
	"monsoon/internal/table"
	"monsoon/internal/value"
)

// DefaultBatchSize is the pipeline batch size when Engine.BatchSize is 0.
const DefaultBatchSize = 4096

// unboundedBatch stands in for "one batch holds everything" when
// Engine.BatchSize < 0 (materialized mode). Kept far from MaxInt so
// lo+slab arithmetic cannot overflow.
const unboundedBatch = int(^uint(0) >> 2)

// batch resolves the engine's BatchSize knob: 0 = DefaultBatchSize,
// negative = unbounded (each operator emits its whole output as one batch,
// reproducing the materialized engine's memory profile exactly).
func (e *Exec) batch() int {
	switch {
	case e.BatchSize < 0:
		return unboundedBatch
	case e.BatchSize == 0:
		return DefaultBatchSize
	}
	return e.BatchSize
}

// scanSlab sizes the chunk a leaf scan examines per pull. It is at least the
// batch size, but also at least workers × parallelMinChunk so that a filter
// scan over a large base table fans out with the same worker count the
// materialized engine used (a bare batch of 4096 rows would cap the fan-out
// at 4 workers regardless of Parallelism).
func (e *Exec) scanSlab() int {
	slab := e.batch()
	w := e.Parallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if min := w * parallelMinChunk; slab < min {
		slab = min
	}
	return slab
}

// rowIter is the pull-based batch iterator every streaming operator
// implements. Next returns the next non-empty batch of rows, nil when
// exhausted. No iterator returns a buffer it reuses — a batch aliases
// stored rows or is freshly allocated — so a batch stays valid after later
// pulls, and a pipeline breaker may hold every batch and gather them once
// (drain). Close must be called exactly once, with the error that stopped
// the drain (nil on a clean run); it ends the iterator's spans and cascades
// to children.
type rowIter interface {
	Next() ([]table.Row, error)
	Close(err error)
}

// nodeIter wraps a plan node's operator iterator with the per-node
// accounting ExecResult carries: inclusive wall time (children are pulled
// inside the parent's Next, so accumulated pull time is inclusive, matching
// the materialized engine), the hardened cardinality on clean exhaustion,
// and the §4.4 Produced charge per emitted batch.
type nodeIter struct {
	inner rowIter
	key   string
	res   *ExecResult
	rows  int
	done  bool
}

func (t *nodeIter) Next() ([]table.Row, error) {
	t0 := time.Now()
	b, err := t.inner.Next()
	t.res.Times[t.key] += time.Since(t0)
	if err != nil {
		return nil, err
	}
	if b == nil {
		if !t.done {
			t.done = true
			// Counts are hardened statistics: only a complete drain may
			// record one (an aborted run must not teach the optimizer a
			// truncated cardinality).
			t.res.Counts[t.key] = float64(t.rows)
		}
		return nil, nil
	}
	t.rows += len(b)
	t.res.Produced += float64(len(b))
	return b, nil
}

func (t *nodeIter) Close(err error) { t.inner.Close(err) }

// drain pulls it dry and gathers its batches into one exactly sized slice
// (stitch), calling each, when set, after every batch: the gather of a
// pipeline breaker. On an error it returns the error; the caller closes it.
func drain(it rowIter, each func()) ([]table.Row, error) {
	var batches [][]table.Row
	for {
		b, err := it.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return stitch(batches), nil
		}
		batches = append(batches, b)
		if each != nil {
			each()
		}
	}
}

// open builds the iterator pipeline for a plan node and wraps it with
// accounting. parent is the enclosing join's umbrella span, nil at the tree
// root (where the ambient tracer stack — holding the KMaterialize span —
// supplies the parent). Open time is charged to the node's inclusive time,
// like the materialized engine's single timestamp around the whole node.
func (e *Exec) open(q *query.Query, n *plan.Node, budget *Budget, res *ExecResult, parent *obs.Span) (rowIter, *table.Schema, error) {
	t0 := time.Now()
	var (
		it     rowIter
		schema *table.Schema
		err    error
	)
	if n.IsLeaf() {
		it, schema, err = e.openLeaf(q, n, budget, parent)
	} else {
		it, schema, err = e.openJoin(q, n, budget, res, parent)
	}
	res.Times[n.Key()] += time.Since(t0)
	if err != nil {
		return nil, nil, err
	}
	return &nodeIter{inner: it, key: n.Key(), res: res}, schema, nil
}

// opSpan starts an operator span in the position the materialized engine
// started it: under the ambient stack at the tree root (parenting to the
// KMaterialize span), explicitly under the enclosing join's umbrella
// otherwise. The explicit parent matters under streaming: a sibling
// subtree's spans stay open on the ambient stack while this one opens, so
// ambient parenting would splice unrelated operators together.
func (e *Exec) opSpan(parent *obs.Span, kind, name string) *obs.Span {
	if parent != nil {
		return e.Obs.StartChild(parent, kind, name)
	}
	return e.Obs.Start(kind, name)
}

// openLeaf resolves a leaf into an iterator: a previously materialized
// expression if one exists under the leaf's key, otherwise a scan of the
// stored base table with every single-alias selection pushed down.
func (e *Exec) openLeaf(q *query.Query, n *plan.Node, budget *Budget, parent *obs.Span) (rowIter, *table.Schema, error) {
	key := n.Key()
	if m, ok := e.mats[key]; ok {
		// Reusing a materialized expression still costs one pass over it
		// (cost(r) = c(r) for r in Re, §4.4), charged slab by slab.
		sp := e.opSpan(parent, obs.KReuse, key).SetStr("expr", key).SetRows(m.Count(), m.Count())
		return &reuseIter{sp: sp, m: m, budget: budget, slab: e.batch()}, m.Schema, nil
	}
	if n.Leaf.Size() != 1 {
		return nil, nil, fmt.Errorf("engine: leaf %q references an unmaterialized expression", key)
	}
	alias := n.Leaf.Alias()
	tbl, ok := q.TableOf(alias)
	if !ok {
		return nil, nil, fmt.Errorf("engine: alias %q not in query", alias)
	}
	base := e.eng.Cat.MustGet(tbl).Renamed(alias)
	sels := q.SelsAt(n.Leaf)
	sp := e.opSpan(parent, obs.KScan, alias).SetStr("expr", key).SetNum("selections", float64(len(sels)))
	it := &scanIter{e: e, sp: sp, base: base, budget: budget, slab: e.scanSlab()}
	if len(sels) > 0 {
		bound, ok := bindSels(sels, base.Schema)
		if !ok {
			sp.End()
			return nil, nil, fmt.Errorf("engine: selections not bindable on %s", base.Schema)
		}
		it.bound = bound
	}
	return it, base.Schema, nil
}

// reuseIter streams a materialized relation back out in batch-sized slices,
// charging the reuse pass incrementally so deadlines fire mid-pass.
type reuseIter struct {
	sp     *obs.Span
	m      *table.Relation
	budget *Budget
	slab   int
	pos    int
	fail   error
	closed bool
}

func (r *reuseIter) Next() ([]table.Row, error) {
	if r.pos >= r.m.Count() {
		return nil, nil
	}
	lo := r.pos
	hi := lo + r.slab
	if hi > r.m.Count() {
		hi = r.m.Count()
	}
	r.pos = hi
	if err := r.budget.Charge(hi - lo); err != nil {
		r.fail = err
		return nil, err
	}
	return r.m.Rows[lo:hi], nil
}

func (r *reuseIter) Close(error) {
	if r.closed {
		return
	}
	r.closed = true
	if r.fail != nil {
		r.sp.SetStr("err", r.fail.Error())
	}
	r.sp.End()
}

// scanIter streams a base table, applying pushed-down selections slab by
// slab. Large slabs fan out through runFilter with per-slab worker
// counts; the span's "workers" attribute records the first fan-out (the
// same count the materialized engine reported for the whole scan).
type scanIter struct {
	e      *Exec
	sp     *obs.Span
	base   *table.Relation
	bound  []boundSel
	budget *Budget
	slab   int
	pos    int
	kept   int
	fanned bool
	fail   error
	closed bool
}

func (s *scanIter) Next() ([]table.Row, error) {
	for s.pos < s.base.Count() {
		lo := s.pos
		hi := lo + s.slab
		if hi > s.base.Count() {
			hi = s.base.Count()
		}
		s.pos = hi
		rows := s.base.Rows[lo:hi]
		if s.bound == nil {
			s.kept += len(rows)
			if err := s.budget.Charge(len(rows)); err != nil {
				s.fail = err
				return nil, err
			}
			return rows, nil
		}
		w := s.e.workers(len(rows))
		if w > 1 && !s.fanned {
			s.fanned = true
			s.sp.SetNum("workers", float64(w))
		}
		out, err := runFilter(s.bound, rows, s.budget, w, s.e.runner(obs.KScan, s.sp))
		s.kept += len(out)
		if err != nil {
			s.fail = err
			return nil, err
		}
		if len(out) > 0 {
			return out, nil
		}
	}
	return nil, nil
}

func (s *scanIter) Close(error) {
	if s.closed {
		return
	}
	s.closed = true
	if s.fail != nil {
		s.sp.SetRows(s.base.Count(), s.kept).SetStr("err", s.fail.Error()).End()
		return
	}
	s.sp.SetRows(s.base.Count(), s.kept).SetProduced(float64(s.kept)).End()
}

// openJoin builds one join node's pipeline under a KJoin umbrella span. The
// left child streams; the right child is a pipeline-breaker, drained in full
// at open time to build the hash table (or to serve as the nested loop's
// inner side). Spans open in the materialized engine's order — KJoin, left
// subtree, right subtree, then KHashBuild/KNestedLoop — so span ids are
// identical between streaming and materialized runs.
func (e *Exec) openJoin(q *query.Query, n *plan.Node, budget *Budget, res *ExecResult, parent *obs.Span) (rowIter, *table.Schema, error) {
	jsp := e.opSpan(parent, obs.KJoin, n.Key()).SetStr("expr", n.Key())
	fail := func(err error, closers ...rowIter) (rowIter, *table.Schema, error) {
		for _, c := range closers {
			c.Close(err)
		}
		jsp.SetStr("err", err.Error()).End()
		return nil, nil, err
	}
	newPreds := q.PredsNewAt(n.Left.Aliases(), n.Right.Aliases())
	newSels := q.SelsNewAt(n.Left.Aliases(), n.Right.Aliases())

	// The hash key is every predicate whose sides bind to opposite children,
	// in predicate order; the first is the primary part, which routes rows
	// to sub-tables. The build side is always the right child — under
	// streaming the left side's cardinality is unknown until drained, so
	// the materialized engine's build-on-the-smaller-side swap is no longer
	// possible — and the probe terms bind the (streaming) left child. The
	// key is chosen before the children open (it is pure) so the exchange
	// decision below can steer how the build child is scanned.
	var buildTerms, probeTerms []*query.Term
	inKey := make([]bool, len(newPreds))
	for i, p := range newPreds {
		switch {
		case p.L.Aliases.SubsetOf(n.Left.Aliases()) && p.R.Aliases.SubsetOf(n.Right.Aliases()):
			probeTerms, buildTerms = append(probeTerms, p.L), append(buildTerms, p.R)
		case p.L.Aliases.SubsetOf(n.Right.Aliases()) && p.R.Aliases.SubsetOf(n.Left.Aliases()):
			probeTerms, buildTerms = append(probeTerms, p.R), append(buildTerms, p.L)
		default:
			continue
		}
		inKey[i] = true
	}
	hashed := len(buildTerms) > 0

	// Exchange decision: a build child served directly by the storage
	// layer's shard layout on the primary key part scans shard-local
	// (shard-major, zero moved rows); any other hash build at S > 1 is a
	// reshuffle — every row is hash-routed into the sub-table it belongs to.
	shards := e.shardCount()
	localBuild := shards > 1 && hashed && e.coPartitioned(q, n.Right, buildTerms[0])

	left, lschema, err := e.open(q, n.Left, budget, res, jsp)
	if err != nil {
		return fail(err)
	}
	var right rowIter
	var rschema *table.Schema
	var zeroRel *table.Relation // in-place build input (no drain) when set
	var zeroSh *table.Sharded
	if localBuild && len(q.SelsAt(n.Right.Leaf)) == 0 {
		zeroRel, zeroSh, rschema, err = e.openShardZero(q, n.Right, budget, res, jsp)
	} else if localBuild {
		right, rschema, err = e.openShard(q, n.Right, budget, res, jsp)
	} else {
		right, rschema, err = e.open(q, n.Right, budget, res, jsp)
	}
	if err != nil {
		return fail(err, left)
	}
	outSchema := lschema.Concat(rschema)

	// Everything else is residual, bound over the output schema and
	// evaluated on each (left row, right row) pair in place.
	var residuals []residual
	for i, p := range newPreds {
		if inKey[i] {
			continue
		}
		lb, ok1 := p.L.Fn.Bind(outSchema)
		rb, ok2 := p.R.Fn.Bind(outSchema)
		if !ok1 || !ok2 {
			return fail(fmt.Errorf("engine: predicate %s not bindable at %s", p, n), left, right)
		}
		residuals = append(residuals, residual{lhs: lb, rhs: rb})
	}
	for _, s := range newSels {
		sb, ok := s.T.Fn.Bind(outSchema)
		if !ok {
			return fail(fmt.Errorf("engine: selection %s not bindable at %s", s, n), left, right)
		}
		residuals = append(residuals, residual{lhs: sb, k: s.Const})
	}

	// Pipeline breaker: drain the right child in full. Hash builds need
	// every build row before the first probe, and the nested loop re-scans
	// its inner side once per outer row. The zero-copy shard path already
	// holds its full input (the stored rows themselves) and skips the drain.
	var buildRel *table.Relation
	if zeroRel != nil {
		buildRel = zeroRel
	} else {
		rrows, err := drain(right, nil)
		if err != nil {
			right.Close(err)
			return fail(err, left)
		}
		right.Close(nil)
		buildRel = table.NewRelation(n.Right.Key(), rschema, rrows)
	}

	if !hashed {
		sp := e.Obs.StartChild(jsp, obs.KNestedLoop, n.Key()).SetNum("residuals", float64(len(residuals)))
		k := &pairKernel{inner: buildRel.Rows, res: residuals, m: meter{b: budget}}
		return &joinIter{e: e, jsp: jsp, sp: sp, left: left, k: k, run: e.runner(obs.KNestedLoop, sp)}, outSchema, nil
	}

	bks := make([]*expr.Binding, len(buildTerms))
	pbs := make([]*expr.Binding, len(probeTerms))
	for i := range buildTerms {
		var ok1, ok2 bool
		bks[i], ok1 = buildTerms[i].Fn.Bind(buildRel.Schema)
		pbs[i], ok2 = probeTerms[i].Fn.Bind(lschema)
		if !ok1 || !ok2 {
			return fail(fmt.Errorf("engine: key %s = %s not bindable at %s", probeTerms[i], buildTerms[i], n), left)
		}
	}
	bsp := e.Obs.StartChild(jsp, obs.KHashBuild, n.Key())
	// One build for every row source: the drained build child, or — on the
	// zero-copy co-partitioned path — the stored rows in place, keyed on the
	// shard column whose hashes the layout already holds. Either way, rows
	// route to sub-table Hash(primary) mod S and chain in ascending order,
	// so the table, and every probe against it, is the serial unsharded
	// one's.
	var rowHash []uint64
	if zeroSh != nil {
		rowHash = zeroSh.RowHash
	}
	w := e.workers(buildRel.Count())
	if w > 1 {
		bsp.SetNum("workers", float64(w))
	}
	ht, inserted, err := buildTable(buildRel.Rows, rowHash, bks, shards, budget, w, e.runner(obs.KHashBuild, bsp))
	if err != nil {
		bsp.SetRows(buildRel.Count(), inserted).SetStr("err", err.Error()).End()
		return fail(err, left)
	}
	if shards > 1 {
		bsp.SetNum("shards", float64(shards))
		if localBuild {
			bsp.SetNum("local", 1)
		} else {
			// Reshuffle: every inserted row was hash-routed across the
			// exchange, so the whole build side counts as moved.
			bsp.SetNum("local", 0).SetNum("exchange_rows", float64(inserted))
		}
		if e.Metrics != nil {
			if localBuild {
				e.Metrics.Counter("monsoon.exchange.joins.local").Inc()
			} else {
				e.Metrics.Counter("monsoon.exchange.joins.reshuffle").Inc()
				e.Metrics.Counter("monsoon.exchange.rows").Add(int64(inserted))
			}
		}
	}
	bsp.SetRows(buildRel.Count(), inserted).SetNum("residuals", float64(len(residuals))).End()
	psp := e.Obs.StartChild(jsp, obs.KHashProbe, n.Key())
	k := &pairKernel{inner: buildRel.Rows, ht: ht, pb: pbs, key: make([]value.Value, len(pbs)), res: residuals, m: meter{b: budget}}
	return &joinIter{e: e, jsp: jsp, sp: psp, left: left, k: k, run: e.runner(obs.KHashProbe, psp)}, outSchema, nil
}

// coPartitioned reports whether a join's build child is served directly by
// the storage layer's shard layout: an unmaterialized single-alias leaf
// whose build term is the identity of the table's shard column. Equal join
// keys then never span storage shards (the shard column IS the join key and
// routing is by its hash), so the build can scan shard-major with zero row
// movement and still yield the serial hash-table layout — within a storage
// shard rows keep their original relative order, and all rows of one key
// live in one shard, so every chain's row list matches the serial build's.
func (e *Exec) coPartitioned(q *query.Query, n *plan.Node, buildTerm *query.Term) bool {
	if buildTerm == nil || !n.IsLeaf() || n.Leaf.Size() != 1 {
		return false
	}
	if _, mat := e.mats[n.Key()]; mat {
		// A materialized intermediate is reused from the Re store, not the
		// storage layer; its rows are not shard-partitioned.
		return false
	}
	alias := n.Leaf.Alias()
	tbl, ok := q.TableOf(alias)
	if !ok {
		return false
	}
	sh, ok := e.eng.Cat.ShardsOf(tbl)
	if !ok || sh.Col == "" {
		return false
	}
	base := e.eng.Cat.MustGet(tbl)
	return buildTerm.Fn.IsIdentity() && buildTerm.Fn.Args[0] == alias+"."+base.Schema.Cols[0].Name
}

// openShard opens a co-partitioned build leaf as a shard-local scan,
// mirroring open's accounting (inclusive open time, nodeIter wrapping).
func (e *Exec) openShard(q *query.Query, n *plan.Node, budget *Budget, res *ExecResult, parent *obs.Span) (rowIter, *table.Schema, error) {
	t0 := time.Now()
	it, schema, err := e.openShardLeaf(q, n, budget, parent)
	res.Times[n.Key()] += time.Since(t0)
	if err != nil {
		return nil, nil, err
	}
	return &nodeIter{inner: it, key: n.Key(), res: res}, schema, nil
}

// openShardZero is the zero-copy variant of the shard-local build scan for
// leaves with no pushed-down selections: every stored row survives the
// "scan", so there is nothing to gather or drain — the build reads the
// base relation in place, with the layout's cached row hashes. The trace and
// budget are indistinguishable from a full shard-local drain (same KScan
// span, one KShard child per storage shard, slab-granular tuple charges);
// only the 2× per-row-header copy of gather-then-drain disappears.
func (e *Exec) openShardZero(q *query.Query, n *plan.Node, budget *Budget, res *ExecResult, parent *obs.Span) (*table.Relation, *table.Sharded, *table.Schema, error) {
	t0 := time.Now()
	defer func() { res.Times[n.Key()] += time.Since(t0) }()
	key := n.Key()
	alias := n.Leaf.Alias()
	tbl, ok := q.TableOf(alias)
	if !ok {
		return nil, nil, nil, fmt.Errorf("engine: alias %q not in query", alias)
	}
	sh, ok := e.eng.Cat.ShardsOf(tbl)
	if !ok {
		return nil, nil, nil, fmt.Errorf("engine: table %q lost its shard layout", tbl)
	}
	base := e.eng.Cat.MustGet(tbl).Renamed(alias)
	slab := e.scanSlab()
	sp := e.opSpan(parent, obs.KScan, alias).SetStr("expr", key).
		SetNum("selections", 0).SetNum("shards", float64(sh.NumShards()))
	total := 0
	for h := 0; h < sh.NumShards(); h++ {
		cnt := len(sh.Shard(h))
		ssp := e.Obs.StartChild(sp, obs.KShard, fmt.Sprintf("s%d", h))
		charged := 0
		for lo := 0; lo < cnt; lo += slab {
			chunk := slab
			if cnt-lo < chunk {
				chunk = cnt - lo
			}
			if err := budget.Charge(chunk); err != nil {
				ssp.SetStr("err", err.Error()).SetRows(cnt, charged).End()
				sp.SetRows(total+charged, total+charged).SetStr("err", err.Error()).End()
				return nil, nil, nil, err
			}
			charged += chunk
		}
		ssp.SetRows(cnt, cnt).End()
		total += cnt
	}
	sp.SetRows(total, total).SetProduced(float64(total)).End()
	// A drained node would charge Produced per batch and record its hardened
	// cardinality through nodeIter; mirror both so the zero-copy handoff is
	// indistinguishable from a complete drain.
	res.Produced += float64(total)
	res.Counts[key] = float64(total)
	return table.NewRelation(key, base.Schema, base.Rows), sh, base.Schema, nil
}

// openShardLeaf is openLeaf's base-table branch over the table's shard
// layout: the same KScan span (plus a "shards" attribute), the same
// pushed-down selections, but the rows drain shard-major with one KShard
// child span per storage shard.
func (e *Exec) openShardLeaf(q *query.Query, n *plan.Node, budget *Budget, parent *obs.Span) (*shardScanIter, *table.Schema, error) {
	key := n.Key()
	alias := n.Leaf.Alias()
	tbl, ok := q.TableOf(alias)
	if !ok {
		return nil, nil, fmt.Errorf("engine: alias %q not in query", alias)
	}
	sh, ok := e.eng.Cat.ShardsOf(tbl)
	if !ok {
		return nil, nil, fmt.Errorf("engine: table %q lost its shard layout", tbl)
	}
	base := e.eng.Cat.MustGet(tbl).Renamed(alias)
	sels := q.SelsAt(n.Leaf)
	sp := e.opSpan(parent, obs.KScan, alias).SetStr("expr", key).
		SetNum("selections", float64(len(sels))).SetNum("shards", float64(sh.NumShards()))
	it := &shardScanIter{e: e, sp: sp, base: base, sh: sh, budget: budget, slab: e.scanSlab()}
	if len(sels) > 0 {
		bound, ok := bindSels(sels, base.Schema)
		if !ok {
			sp.End()
			return nil, nil, fmt.Errorf("engine: selections not bindable on %s", base.Schema)
		}
		it.bound = bound
	}
	return it, base.Schema, nil
}

// shardScanIter is the shard-local scan of a co-partitioned build side with
// pushed-down selections (openShardZero serves one without): it drains the
// table's storage shards in shard-index order, applying the selections slab
// by slab exactly like scanIter (the same per-kept-row charges, so totals
// are identical to the unsharded scan). Shard-major output order is safe
// only because the consumer is a hash-routed build whose per-key layout is
// shard-order-independent; it is never a streaming probe side.
type shardScanIter struct {
	e       *Exec
	sp      *obs.Span
	base    *table.Relation // renamed view: schema under the query alias
	sh      *table.Sharded
	bound   []boundSel
	budget  *Budget
	slab    int
	si      int         // current shard index
	pos     int         // position within the current shard
	cur     *obs.Span   // current shard's KShard span
	buf     []table.Row // gather buffer, reused: only the filter reads it
	curKept int
	total   int
	kept    int
	fanned  bool
	fail    error
	closed  bool
}

func (s *shardScanIter) Next() ([]table.Row, error) {
	for s.si < s.sh.NumShards() {
		idx := s.sh.Shard(s.si)
		if s.cur == nil {
			s.cur = s.e.Obs.StartChild(s.sp, obs.KShard, fmt.Sprintf("s%d", s.si))
		}
		if s.pos >= len(idx) {
			s.cur.SetRows(len(idx), s.curKept).End()
			s.cur, s.curKept, s.pos = nil, 0, 0
			s.si++
			continue
		}
		lo := s.pos
		hi := lo + s.slab
		if hi > len(idx) {
			hi = len(idx)
		}
		s.pos = hi
		// Gather the shard's rows through the layout's permutation into a
		// reusable buffer. The filter copies the rows it keeps, so the
		// buffer itself is never handed out.
		ids := idx[lo:hi]
		if cap(s.buf) < len(ids) {
			s.buf = make([]table.Row, len(ids))
		}
		rows := s.buf[:len(ids)]
		for j, id := range ids {
			rows[j] = s.base.Rows[id]
		}
		s.total += len(rows)
		w := s.e.workers(len(rows))
		if w > 1 && !s.fanned {
			s.fanned = true
			s.sp.SetNum("workers", float64(w))
		}
		out, err := runFilter(s.bound, rows, s.budget, w, s.e.runner(obs.KScan, s.cur))
		s.kept += len(out)
		s.curKept += len(out)
		if err != nil {
			s.fail = err
			return nil, err
		}
		if len(out) > 0 {
			return out, nil
		}
	}
	return nil, nil
}

func (s *shardScanIter) Close(error) {
	if s.closed {
		return
	}
	s.closed = true
	if s.cur != nil {
		if s.fail != nil {
			s.cur.SetStr("err", s.fail.Error())
		}
		s.cur.SetRows(len(s.sh.Shard(s.si)), s.curKept).End()
	}
	if s.fail != nil {
		s.sp.SetRows(s.total, s.kept).SetStr("err", s.fail.Error()).End()
		return
	}
	s.sp.SetRows(s.total, s.kept).SetProduced(float64(s.kept)).End()
}

// peakSampleStride spaces the runtime.ReadMemStats calls of the peak-memory
// gauge on the drain path: every strideth batch plus the drain's start and
// end. ReadMemStats briefly stops the world, so sampling is gated on a
// metrics registry being attached and kept off the per-batch path otherwise.
const peakSampleStride = 8

// peakSampleTick paces the sampler's background goroutine. Batch-boundary
// samples alone would under-read the unbounded/materialized mode, where a
// whole tree drains in a single batch and the heap's true peak lies inside
// one long operator call; a wall-clock ticker observes both modes evenly.
const peakSampleTick = 2 * time.Millisecond

// peakSampler tracks the peak heap allocation observed while a tree drains,
// feeding ExecResult.PeakBytes and the monsoon.exec.peak_bytes gauge. It
// samples at batch boundaries (exact, cheap) and from a background ticker
// (catches peaks inside pipeline-breaking operator calls). The sampler only
// reads runtime counters, so it cannot perturb results, spans, or budgets.
type peakSampler struct {
	e       *Exec
	res     *ExecResult
	enabled bool
	ticks   int
	peak    uint64
	bgPeak  atomic.Uint64
	stop    chan struct{}
	done    chan struct{}
}

func (e *Exec) peakSampler(res *ExecResult) *peakSampler {
	ps := &peakSampler{e: e, res: res, enabled: e.Metrics != nil}
	if ps.enabled {
		ps.read()
		ps.stop = make(chan struct{})
		ps.done = make(chan struct{})
		go ps.background()
	}
	return ps
}

func (ps *peakSampler) background() {
	defer close(ps.done)
	t := time.NewTicker(peakSampleTick)
	defer t.Stop()
	for {
		select {
		case <-ps.stop:
			return
		case <-t.C:
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > ps.bgPeak.Load() {
				ps.bgPeak.Store(ms.HeapAlloc)
			}
		}
	}
}

func (ps *peakSampler) read() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > ps.peak {
		ps.peak = ms.HeapAlloc
	}
}

func (ps *peakSampler) sample() {
	if !ps.enabled {
		return
	}
	ps.ticks++
	if ps.ticks%peakSampleStride == 0 {
		ps.read()
	}
}

func (ps *peakSampler) finish() {
	if !ps.enabled {
		return
	}
	close(ps.stop)
	<-ps.done
	ps.read()
	if bg := ps.bgPeak.Load(); bg > ps.peak {
		ps.peak = bg
	}
	ps.res.PeakBytes = float64(ps.peak)
	ps.e.Metrics.Gauge("monsoon.exec.peak_bytes").Set(float64(ps.peak))
}
