// Parallel execution paths for the engine's partitionable operators: filter
// scans, hash-join builds, and the Σ statistics pass; the two join loops fan
// out through the same runner from join.go. All follow the same recipe —
// split the input into contiguous chunks, give every worker its own bindings
// and output buffer, and stitch (or merge) the buffers back together in
// input order — so a parallel run is bit-identical to the serial one: same
// row order, same hash-table chain order, same Σ sketch estimates (HLL
// register merge is order-independent), same budget totals. Only wall time
// changes.
package engine

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"monsoon/internal/expr"
	"monsoon/internal/obs"
	"monsoon/internal/query"
	"monsoon/internal/sketch"
	"monsoon/internal/table"
)

const (
	// parallelMinRows is the smallest input for which fanning out pays;
	// below it the goroutine handoff costs more than the scan.
	parallelMinRows = 4096
	// parallelMinChunk bounds the worker count so every worker has a
	// meaningful slice of the input.
	parallelMinChunk = 1024
)

// workers resolves the engine's Parallelism knob for an operator over n input
// rows: 0 means runtime.GOMAXPROCS(0), 1 forces the serial legacy path, and
// any setting degrades to 1 when the input is too small to be worth
// splitting.
func (e *Exec) workers(n int) int {
	w := e.Parallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w <= 1 || n < parallelMinRows {
		return 1
	}
	if max := n / parallelMinChunk; w > max {
		w = max
	}
	return w
}

// splitRows partitions [0,n) into w contiguous [lo,hi) ranges whose sizes
// differ by at most one row.
func splitRows(n, w int) [][2]int {
	out := make([][2]int, 0, w)
	base, rem := n/w, n%w
	lo := 0
	for i := 0; i < w; i++ {
		hi := lo + base
		if i < rem {
			hi++
		}
		out = append(out, [2]int{lo, hi})
		lo = hi
	}
	return out
}

// workerRunner fans a partitioned loop body out over w workers over n rows.
// runWorkers is the plain implementation; Exec.tracedRunner layers
// per-worker spans on top of the same fan-out.
type workerRunner func(n, w int, fn func(worker, lo, hi int) error) error

// runWorkers fans fn out over w contiguous partitions of n rows and returns
// the error of the lowest-numbered failing partition (deterministic even when
// several workers trip the budget at once).
func runWorkers(n, w int, fn func(worker, lo, hi int) error) error {
	parts := splitRows(n, w)
	errs := make([]error, w)
	var wg sync.WaitGroup
	for i, p := range parts {
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			errs[i] = fn(i, lo, hi)
		}(i, p[0], p[1])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// tracedRunner returns the worker runner for one parallel operator: plain
// runWorkers when tracing is off, otherwise a fan-out that records one
// KWorker span per partition under the operator's span. Span IDs stay
// deterministic because the coordinator pre-creates every worker span before
// the goroutines launch and ends them in index order after the barrier; each
// span's duration is the worker's own measured busy time (EndIn), not the
// coordinator's wall clock. Worker *counts* still follow GOMAXPROCS, which is
// why KWorker is the one machine-dependent span kind.
func (e *Exec) tracedRunner(op *obs.Span) workerRunner {
	if op == nil || !e.Obs.Active() {
		return runWorkers
	}
	return func(n, w int, fn func(worker, lo, hi int) error) error {
		parts := splitRows(n, w)
		// Streaming operators fan out once per large-enough batch, so the
		// operator span accumulates its total worker-span count here (the
		// "workers" attribute records only the first fan-out's width).
		op.AddNum("worker_spans", float64(len(parts)))
		spans := make([]*obs.Span, len(parts))
		for i, p := range parts {
			spans[i] = e.Obs.StartChild(op, obs.KWorker, fmt.Sprintf("w%d", i)).
				SetRows(p[1]-p[0], 0)
		}
		elapsed := make([]time.Duration, len(parts))
		errs := make([]error, len(parts))
		var wg sync.WaitGroup
		for i, p := range parts {
			wg.Add(1)
			go func(i, lo, hi int) {
				defer wg.Done()
				t0 := time.Now()
				errs[i] = fn(i, lo, hi)
				elapsed[i] = time.Since(t0)
			}(i, p[0], p[1])
		}
		wg.Wait()
		for i, sp := range spans {
			if errs[i] != nil {
				sp.SetStr("err", errs[i].Error())
			}
			sp.EndIn(elapsed[i])
		}
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
}

// stitch concatenates per-worker output buffers in partition order, which is
// exactly the order the serial loop would have produced.
func stitch(bufs [][]table.Row) []table.Row {
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	out := make([]table.Row, 0, total)
	for _, b := range bufs {
		out = append(out, b...)
	}
	return out
}

// bindSels resolves every pushed-down selection against a schema.
func bindSels(sels []*query.SelPred, s *table.Schema) ([]boundSel, bool) {
	bound := make([]boundSel, 0, len(sels))
	for _, sel := range sels {
		b, ok := sel.T.Fn.Bind(s)
		if !ok {
			return nil, false
		}
		bound = append(bound, boundSel{b: b, k: sel.Const})
	}
	return bound, true
}

// filter keeps the rows every bound selection accepts, charging one tuple
// per kept row: the selection scan's loop body. On a budget error the rows
// kept so far come back with it.
func filter(bound []boundSel, rows []table.Row, budget *Budget) ([]table.Row, error) {
	out := make([]table.Row, 0, len(rows)/4+1)
	for _, row := range rows {
		keep := true
		for _, s := range bound {
			if !s.b.Eval(row).Equal(s.k) {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, row)
			if err := budget.Charge(1); err != nil {
				return out, err
			}
		}
	}
	return out, nil
}

// runFilter filters one slab: inline when w == 1, otherwise over w
// contiguous chunks, each worker with cloned bindings, outputs stitched in
// input order.
func runFilter(bound []boundSel, rows []table.Row, budget *Budget, w int, run workerRunner) ([]table.Row, error) {
	if w <= 1 {
		return filter(bound, rows, budget)
	}
	bufs := make([][]table.Row, w)
	err := run(len(rows), w, func(worker, lo, hi int) error {
		own := make([]boundSel, len(bound))
		for i, s := range bound {
			own[i] = boundSel{b: s.b.Clone(), k: s.k}
		}
		var err error
		bufs[worker], err = filter(own, rows[lo:hi], budget)
		return err
	})
	return stitch(bufs), err
}

// parallelBuild is the partitioned hash-join build: each worker hashes a
// contiguous chunk of the build side (global row indices) into a private
// sub-table, and the sub-tables are merged bucket-wise in worker order.
// Because chunks are contiguous and ascending, worker-order merging restores
// both serial invariants exactly — collision chains in global
// first-occurrence order, per-bucket row lists ascending — so the merged
// table is identical to the one the serial loop builds. Returns the table
// and the number of non-NULL keys inserted.
func parallelBuild(buildRel *table.Relation, bTerm *query.Term, budget *Budget, w int, run workerRunner) (hashTable, int, error) {
	subs := make([]hashTable, w)
	ins := make([]int, w)
	err := run(buildRel.Count(), w, func(worker, lo, hi int) error {
		bb, _ := bTerm.Fn.Bind(buildRel.Schema)
		ht := make(hashTable, hi-lo)
		for j, row := range buildRel.Rows[lo:hi] {
			// Building produces nothing but must still honor the deadline.
			if err := budget.Charge(0); err != nil {
				subs[worker] = ht
				return err
			}
			k := bb.Eval(row)
			if k.IsNull() {
				continue
			}
			ins[worker]++
			ht.insert(k, lo+j)
		}
		subs[worker] = ht
		return nil
	})
	inserted := 0
	for _, n := range ins {
		inserted += n
	}
	if err != nil {
		return nil, inserted, err
	}
	merged := subs[0]
	for wi := 1; wi < w; wi++ {
		mergeHashTables(merged, subs[wi])
	}
	return merged, inserted, nil
}

// mergeHashTables folds src's chains into dst: row lists concatenate and
// unseen buckets append after dst's. Correct only when every row index in
// src exceeds every index in dst — contiguous ascending worker chunks —
// which is how both parallel builds call it, worker by worker in order.
func mergeHashTables(dst, src hashTable) {
	for h, chain := range src {
		d := dst[h]
		for _, b := range chain {
			found := false
			for di := range d {
				if d[di].key.Equal(b.key) {
					d[di].rows = append(d[di].rows, b.rows...)
					found = true
					break
				}
			}
			if !found {
				d = append(d, b)
			}
		}
		dst[h] = d
	}
}

// parallelShardedBuild is the exchange-routed parallelBuild: each worker
// hashes its contiguous chunk into a private shardedTable (routing every
// key by its full hash), and the per-worker tables merge shard by shard in
// worker order — the same ascending-chunk merge parallelBuild uses, applied
// within each sub-table, so the result is identical to a serial routed
// build, which in turn probes identically to the unsharded table.
func parallelShardedBuild(buildRel *table.Relation, bTerm *query.Term, s int, budget *Budget, w int, run workerRunner) (*shardedTable, int, error) {
	subs := make([]*shardedTable, w)
	ins := make([]int, w)
	err := run(buildRel.Count(), w, func(worker, lo, hi int) error {
		bb, _ := bTerm.Fn.Bind(buildRel.Schema)
		st := newShardedTable(s, hi-lo)
		subs[worker] = st
		for j, row := range buildRel.Rows[lo:hi] {
			// Building produces nothing but must still honor the deadline.
			if err := budget.Charge(0); err != nil {
				return err
			}
			k := bb.Eval(row)
			if k.IsNull() {
				continue
			}
			ins[worker]++
			st.insert(k, lo+j)
		}
		return nil
	})
	inserted := 0
	for _, n := range ins {
		inserted += n
	}
	if err != nil {
		return nil, inserted, err
	}
	merged := subs[0]
	for wi := 1; wi < w; wi++ {
		for si, sub := range subs[wi].subs {
			mergeHashTables(merged.subs[si], sub)
		}
	}
	return merged, inserted, nil
}

// shardLocalBuild is the zero-exchange build of a co-partitioned hash join.
// The build rows arrived shard-major from the storage layout — bounds[si] is
// the cumulative end of storage shard si's rows in buildRel — and within
// storage shard si every key hashes to si mod S by construction (the shard
// column IS the build key and storage routes by the same value hash). Each
// sub-table therefore builds directly from its contiguous row range: no
// per-row routing and, unlike the chunk-partitioned builds, no cross-worker
// merge — workers own whole sub-tables, partitioned contiguously by shard
// index. Insertion order within a sub-table is the global (ascending) row
// order, so chains come out in first-occurrence order with ascending row
// lists — identical to the serial routed build, which probes identically to
// the unsharded table. Returns the table and the non-NULL insert count.
func shardLocalBuild(buildRel *table.Relation, bounds []int, bTerm *query.Term, budget *Budget, w int, run workerRunner) (*shardedTable, int, error) {
	s := len(bounds)
	if w > s {
		w = s
	}
	if w < 1 {
		w = 1
	}
	t := &shardedTable{subs: make([]hashTable, s)}
	ins := make([]int, s)
	err := run(s, w, func(_, lo, hi int) error {
		bb, _ := bTerm.Fn.Bind(buildRel.Schema)
		for si := lo; si < hi; si++ {
			start := 0
			if si > 0 {
				start = bounds[si-1]
			}
			rows := buildRel.Rows[start:bounds[si]]
			ht := make(hashTable, len(rows))
			t.subs[si] = ht
			for j, row := range rows {
				// Building produces nothing but must still honor the deadline.
				if err := budget.Charge(0); err != nil {
					return err
				}
				k := bb.Eval(row)
				if k.IsNull() {
					continue
				}
				ins[si]++
				ht.insertHash(k.Hash(), k, start+j)
			}
		}
		return nil
	})
	inserted := 0
	for _, n := range ins {
		inserted += n
	}
	if err != nil {
		return nil, inserted, err
	}
	return t, inserted, nil
}

// shardLocalBuildPerm is shardLocalBuild without the drain: when the
// co-partitioned build leaf has no pushed-down selections, every stored row
// survives the scan, so sub-tables build in place off the base relation,
// inserting global row indices. The bit-identity argument is the same — all
// rows of one key live in one shard and in-shard indices ascend, so every
// bucket's chain and row list matches the serial unsharded build's — but no
// row header is ever copied.
//
// coPartitioned guarantees the build term is the identity of the shard
// column, so the key of row i is Rows[i][0] and its hash is the layout's
// cached RowHash[i]; the build never re-runs the binding or FNV. Serially
// it routes a single sequential pass over the stored rows (the prefetchable
// access pattern the unsharded build enjoys); with workers each owns whole
// sub-tables and walks its shards' permutation slices instead, trading
// strided row reads for merge-free parallelism.
func shardLocalBuildPerm(buildRel *table.Relation, sh *table.Sharded, budget *Budget, w int, run workerRunner) (*shardedTable, int, error) {
	s := sh.NumShards()
	if w > s {
		w = s
	}
	if w < 1 {
		w = 1
	}
	t := &shardedTable{subs: make([]hashTable, s)}
	for si := 0; si < s; si++ {
		t.subs[si] = make(hashTable, len(sh.Shard(si)))
	}
	if w == 1 {
		inserted := 0
		for i, row := range buildRel.Rows {
			// Building produces nothing but must still honor the deadline.
			if err := budget.Charge(0); err != nil {
				return nil, inserted, err
			}
			k := row[0]
			if k.IsNull() {
				continue
			}
			inserted++
			h := sh.RowHash[i]
			t.subs[h%uint64(s)].insertHash(h, k, i)
		}
		return t, inserted, nil
	}
	ins := make([]int, s)
	err := run(s, w, func(_, lo, hi int) error {
		for si := lo; si < hi; si++ {
			ht := t.subs[si]
			for _, id := range sh.Shard(si) {
				if err := budget.Charge(0); err != nil {
					return err
				}
				row := buildRel.Rows[id]
				k := row[0]
				if k.IsNull() {
					continue
				}
				ins[si]++
				ht.insertHash(sh.RowHash[id], k, int(id))
			}
		}
		return nil
	})
	inserted := 0
	for _, n := range ins {
		inserted += n
	}
	if err != nil {
		return nil, inserted, err
	}
	return t, inserted, nil
}

// sigmaSketches holds one worker's (or the merged) HLL per tracked term, in
// the caller's term order.
type sigmaSketches []*sketch.HLL

// parallelSigma runs the Σ pass fan-out: each worker clones one HLL per term,
// scans its chunk, and the clones are merged register-wise afterwards — the
// merge is a per-register max, so the merged estimate is identical to the
// serial single-sketch estimate regardless of partitioning.
func parallelSigma(rel *table.Relation, terms []*query.Term, p uint8, budget *Budget, w int, run workerRunner) (sigmaSketches, error) {
	clones := make([]sigmaSketches, w)
	err := run(rel.Count(), w, func(worker, lo, hi int) error {
		bs := make([]*expr.Binding, len(terms))
		hs := make(sigmaSketches, len(terms))
		for i, t := range terms {
			bs[i], _ = t.Fn.Bind(rel.Schema)
			hs[i] = sketch.NewHLL(p)
		}
		clones[worker] = hs
		for _, row := range rel.Rows[lo:hi] {
			if err := budget.Charge(1); err != nil {
				return err
			}
			for i, b := range bs {
				v := b.Eval(row)
				if v.IsNull() {
					continue
				}
				hs[i].Add(v.Hash())
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	merged := make(sigmaSketches, len(terms))
	for i := range terms {
		merged[i] = sketch.NewHLL(p)
		for _, hs := range clones {
			merged[i].Merge(hs[i])
		}
	}
	return merged, nil
}

// serialSigma runs one relation's Σ pass inline — the per-shard fallback
// when a shard is too small to fan out. Charging and estimates match the
// parallel path exactly.
func serialSigma(rel *table.Relation, terms []*query.Term, p uint8, budget *Budget) (sigmaSketches, error) {
	bs := make([]*expr.Binding, len(terms))
	hs := make(sigmaSketches, len(terms))
	for i, t := range terms {
		bs[i], _ = t.Fn.Bind(rel.Schema)
		hs[i] = sketch.NewHLL(p)
	}
	for _, row := range rel.Rows {
		if err := budget.Charge(1); err != nil {
			return nil, err
		}
		for i, b := range bs {
			v := b.Eval(row)
			if v.IsNull() {
				continue
			}
			hs[i].Add(v.Hash())
		}
	}
	return hs, nil
}

// shardedSigma is the partial-Σ exchange: the materialized result is
// partitioned by its first column's hash — the storage layer's routing —
// and every shard runs its own HLL pass under a per-shard KShard span,
// fanning out within the shard when it is large enough. The partials merge
// register-wise in shard index order; the merge is a per-register max, so
// estimates are identical to the single-pass sketch for any partitioning,
// and budget totals are identical because every row is charged exactly once
// regardless of which shard visits it.
func (e *Exec) shardedSigma(op *obs.Span, rel *table.Relation, terms []*query.Term, p uint8, s int, budget *Budget) (sigmaSketches, error) {
	parts := make([][]table.Row, s)
	for _, row := range rel.Rows {
		h := row[0].Hash() % uint64(s)
		parts[h] = append(parts[h], row)
	}
	merged := make(sigmaSketches, len(terms))
	for i := range terms {
		merged[i] = sketch.NewHLL(p)
	}
	for si, part := range parts {
		ssp := e.Obs.StartChild(op, obs.KShard, fmt.Sprintf("s%d", si)).SetRows(len(part), len(terms))
		shard := table.NewRelation(rel.Name, rel.Schema, part)
		var partials sigmaSketches
		var err error
		if w := e.workers(len(part)); w > 1 {
			ssp.SetNum("workers", float64(w))
			partials, err = parallelSigma(shard, terms, p, budget, w, e.tracedRunner(ssp))
		} else {
			partials, err = serialSigma(shard, terms, p, budget)
		}
		if err != nil {
			ssp.SetStr("err", err.Error()).End()
			return nil, err
		}
		for i := range terms {
			merged[i].Merge(partials[i])
		}
		ssp.End()
	}
	return merged, nil
}
