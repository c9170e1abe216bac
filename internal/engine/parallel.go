// Parallel execution paths for the engine's partitionable operators: filter
// scans and the Σ statistics pass; the hash-join build (hashtable.go) and
// the two join loops (join.go) fan out through the same runner. All follow
// the same recipe — split the input into contiguous chunks, give every
// worker its own bindings and output buffer, and stitch (or merge) the
// buffers back together in input order — so a parallel run is
// bit-identical to the serial one: same row order, same hash-table chain
// order, same Σ sketch estimates (HLL register merge is order-independent),
// same budget totals. Only wall time changes.
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

// workerRunner fans a partitioned loop body out over w workers over n rows,
// calling it inline when w <= 1. Exec.runner builds one per operator; every
// partitionable operator runs its loop body through one, at any width.
type workerRunner func(n, w int, fn func(worker, lo, hi int) error) error

// runner returns the worker runner for one parallel operator of kind op. It
// returns the error of the lowest-numbered failing partition (deterministic
// even when several workers trip the budget at once). With tracing on, it
// records one KWorker span per partition under the operator's span sp. Span
// IDs stay deterministic because the coordinator pre-creates every worker
// span before the goroutines launch and ends them in index order after the
// barrier; each span's duration is the worker's own measured busy time
// (EndIn), not the coordinator's wall clock. Worker *counts* still follow
// GOMAXPROCS, which is why KWorker is the one machine-dependent span kind.
// A panic in fn becomes an error naming op, inline or on a worker.
func (e *Exec) runner(op string, sp *obs.Span) workerRunner {
	traced := sp != nil && e.Obs.Active()
	return func(n, w int, fn func(worker, lo, hi int) error) (err error) {
		if w <= 1 {
			defer catch(op, 0, &err)
			return fn(0, 0, n)
		}
		parts := splitRows(n, w)
		var spans []*obs.Span
		if traced {
			// Streaming operators fan out once per large-enough batch, so the
			// operator span accumulates its total worker-span count here (the
			// "workers" attribute records only the first fan-out's width).
			sp.AddNum("worker_spans", float64(len(parts)))
			for i, p := range parts {
				spans = append(spans, e.Obs.StartChild(sp, obs.KWorker, fmt.Sprintf("w%d", i)).
					SetRows(p[1]-p[0], 0))
			}
		}
		elapsed, errs := fanOut(op, parts, fn)
		for i, ws := range spans {
			if errs[i] != nil {
				ws.SetStr("err", errs[i].Error())
			}
			ws.EndIn(elapsed[i])
		}
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
}

// fanOut runs fn on one goroutine per partition and reports each one's busy
// time and error.
func fanOut(op string, parts [][2]int, fn func(worker, lo, hi int) error) ([]time.Duration, []error) {
	elapsed := make([]time.Duration, len(parts))
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for i, p := range parts {
		wg.Add(1)
		go func(i, lo, hi int) {
			t0 := time.Now()
			defer func() {
				elapsed[i] = time.Since(t0)
				wg.Done()
			}()
			defer catch(op, i, &errs[i])
			errs[i] = fn(i, lo, hi)
		}(i, p[0], p[1])
	}
	wg.Wait()
	return elapsed, errs
}

// catch, deferred, turns a panic of the loop body — a caller's UDF failing
// on some value — into *err, naming the operator op and the worker, instead
// of letting it kill the process.
func catch(op string, worker int, err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("engine: %s worker %d panicked: %v", op, worker, r)
	}
}

// stitch concatenates per-worker output buffers (or a drained iterator's
// batches) in order into one exactly sized slice: the order the serial loop
// would have produced. A sole buffer is returned as it is, capped at its
// length so that no append can reach the rows past it.
func stitch(bufs [][]table.Row) []table.Row {
	if len(bufs) == 1 {
		return bufs[0][:len(bufs[0]):len(bufs[0])]
	}
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	if total == 0 {
		return nil
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
	m := meter{b: budget}
	for _, row := range rows {
		keep := true
		for _, s := range bound {
			if !s.b.Eval(row).Equal(s.k) {
				keep = false
				break
			}
		}
		if !keep {
			// Rejected rows produce nothing; poll the deadline anyway.
			if err := m.poll(); err != nil {
				return out, err
			}
			continue
		}
		out = append(out, row)
		if err := m.charge(1); err != nil {
			return out, err
		}
	}
	return out, nil
}

// runFilter filters one slab over w contiguous chunks, each worker of a
// fan-out with cloned bindings, outputs stitched in input order.
func runFilter(bound []boundSel, rows []table.Row, budget *Budget, w int, run workerRunner) ([]table.Row, error) {
	bufs := make([][]table.Row, w)
	err := run(len(rows), w, func(worker, lo, hi int) error {
		own := bound
		if w > 1 {
			own = make([]boundSel, len(bound))
			for i, s := range bound {
				own[i] = boundSel{b: s.b.Clone(), k: s.k}
			}
		}
		var err error
		bufs[worker], err = filter(own, rows[lo:hi], budget)
		return err
	})
	return stitch(bufs), err
}

// sigmaSketches holds one worker's (or the merged) HLL per tracked term, in
// the caller's term order.
type sigmaSketches []*sketch.HLL

// sigmaPass runs the Σ pass over w workers: each worker binds the terms and
// fills one HLL per term from its chunk, and with several workers the
// sketches are merged register-wise afterwards — the merge is a
// per-register max, so the merged estimate is identical to the serial
// single-sketch estimate regardless of partitioning.
func sigmaPass(rel *table.Relation, terms []*query.Term, p uint8, budget *Budget, w int, run workerRunner) (sigmaSketches, error) {
	clones := make([]sigmaSketches, w)
	err := run(rel.Count(), w, func(worker, lo, hi int) error {
		bs := make([]*expr.Binding, len(terms))
		hs := make(sigmaSketches, len(terms))
		for i, t := range terms {
			bs[i], _ = t.Fn.Bind(rel.Schema)
			hs[i] = sketch.NewHLL(p)
		}
		clones[worker] = hs
		m := meter{b: budget}
		for _, row := range rel.Rows[lo:hi] {
			if err := m.charge(1); err != nil {
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
	if w == 1 {
		return clones[0], nil
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
		w := e.workers(len(part))
		if w > 1 {
			ssp.SetNum("workers", float64(w))
		}
		partials, err := sigmaPass(shard, terms, p, budget, w, e.runner(obs.KSigma, ssp))
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
