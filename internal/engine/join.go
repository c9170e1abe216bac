package engine

import (
	"monsoon/internal/expr"
	"monsoon/internal/obs"
	"monsoon/internal/table"
	"monsoon/internal/value"
)

// residual is a predicate a join tests on each candidate row pair: a join
// predicate lhs = rhs, or a selection lhs = k when rhs is nil. Both sides are
// bound over the join's output schema and evaluated with EvalPair, so a pair
// is never concatenated to be tested.
type residual struct {
	lhs, rhs *expr.Binding
	k        value.Value
}

// pairKernel is the loop body both join operators share. It pairs each outer
// (left) row with inner rows — the build rows one hash chain selects, or
// every inner row when there is no hash table — tests the residuals where
// the two rows sit, and allocates a joined row only for a pair that passes.
// Serial execution calls the body on this goroutine; each fan-out worker
// calls the same body on its chunk through a clone with its own bindings.
type pairKernel struct {
	inner  []table.Row   // build rows (hash join) or the inner relation (nested loop)
	ht     *shardedTable // nil for a nested loop
	pb     *expr.Binding // probe key over the outer schema (hash join only)
	res    []residual
	budget *Budget
}

// clone gives a fan-out worker private bindings; the rows and the hash table
// are read-only and shared.
func (k *pairKernel) clone() *pairKernel {
	c := *k
	if k.pb != nil {
		c.pb = k.pb.Clone()
	}
	c.res = make([]residual, len(k.res))
	for i, r := range k.res {
		c.res[i] = residual{lhs: r.lhs.Clone(), k: r.k}
		if r.rhs != nil {
			c.res[i].rhs = r.rhs.Clone()
		}
	}
	return &c
}

// rowWork is the work one outer row costs: one probe, or a pass over the
// inner side. It sizes the fan-out.
func (k *pairKernel) rowWork() int {
	if k.ht != nil {
		return 1
	}
	return len(k.inner)
}

// loop joins a run of outer rows. It returns the joined rows in outer order
// and the operator's rows-in count for the run: outer rows probed, or row
// pairs scanned. On a budget error the rows emitted so far come back with it.
func (k *pairKernel) loop(outer []table.Row) ([]table.Row, int, error) {
	if k.ht == nil {
		return k.nestedLoop(outer)
	}
	return k.probe(outer)
}

// probe is the hash-join loop body. NULL keys never match.
func (k *pairKernel) probe(outer []table.Row) ([]table.Row, int, error) {
	var out []table.Row
	for _, l := range outer {
		// Matchless probes produce nothing; poll the deadline anyway.
		if err := k.budget.Charge(0); err != nil {
			return out, len(outer), err
		}
		key := k.pb.Eval(l)
		if key.IsNull() {
			continue
		}
		for _, b := range k.ht.chains(key.Hash()) {
			if !b.key.Equal(key) {
				continue
			}
			for _, bi := range b.rows {
				r := k.inner[bi]
				if !k.pass(l, r) {
					continue
				}
				out = append(out, joinRows(l, r))
				if err := k.budget.Charge(1); err != nil {
					return out, len(outer), err
				}
			}
		}
	}
	return out, len(outer), nil
}

// nestedLoop is the filtered-product loop body, the only strategy when no
// predicate separates the children.
func (k *pairKernel) nestedLoop(outer []table.Row) ([]table.Row, int, error) {
	var out []table.Row
	pairs := 0
	for _, l := range outer {
		for _, r := range k.inner {
			pairs++
			if !k.pass(l, r) {
				// Even rejected pairs consume work; poll the deadline with a
				// zero charge.
				if err := k.budget.Charge(0); err != nil {
					return out, pairs, err
				}
				continue
			}
			out = append(out, joinRows(l, r))
			if err := k.budget.Charge(1); err != nil {
				return out, pairs, err
			}
		}
	}
	return out, pairs, nil
}

// pass tests every residual on the pair (l, r).
func (k *pairKernel) pass(l, r table.Row) bool {
	for _, res := range k.res {
		want := res.k
		if res.rhs != nil {
			want = res.rhs.EvalPair(l, r)
		}
		if !res.lhs.EvalPair(l, r).Equal(want) {
			return false
		}
	}
	return true
}

// joinRows allocates the output row l ++ r.
func joinRows(l, r table.Row) table.Row {
	out := make(table.Row, len(l)+len(r))
	copy(out, l)
	copy(out[len(l):], r)
	return out
}

// run joins one batch: inline on this goroutine when w == 1 (no goroutine,
// no KWorker spans), otherwise over w contiguous chunks, one kernel clone per
// worker, with the outputs stitched in chunk order — the serial order.
func (k *pairKernel) run(outer []table.Row, w int, run workerRunner) ([]table.Row, int, error) {
	if w <= 1 {
		return k.loop(outer)
	}
	bufs := make([][]table.Row, w)
	ins := make([]int, w)
	err := run(len(outer), w, func(worker, lo, hi int) error {
		var err error
		bufs[worker], ins[worker], err = k.clone().loop(outer[lo:hi])
		return err
	})
	in := 0
	for _, n := range ins {
		in += n
	}
	return stitch(bufs), in, err
}

// joinIter runs a join over the batches its left child streams: a hash probe
// against the prebuilt table, or a nested loop over the drained inner side.
// Each output batch is the join of one input batch, in input order, so
// output is identical at every batch size and worker count. The operator
// span's rows-in counts probe rows or row pairs scanned, accumulated across
// batches.
type joinIter struct {
	e       *Exec
	jsp, sp *obs.Span
	left    rowIter
	k       *pairKernel
	in      int
	emitted int
	fanned  bool
	fail    error
	closed  bool
}

func (j *joinIter) Next() ([]table.Row, error) {
	for {
		batch, err := j.left.Next()
		if err != nil {
			j.fail = err
			return nil, err
		}
		if batch == nil {
			return nil, nil
		}
		// Every worker gets at least one outer row.
		w := min(j.e.workers(len(batch)*j.k.rowWork()), len(batch))
		var run workerRunner
		if w > 1 {
			if !j.fanned {
				j.fanned = true
				j.sp.SetNum("workers", float64(w))
			}
			run = j.e.tracedRunner(j.sp)
		}
		out, in, err := j.k.run(batch, w, run)
		j.in += in
		j.emitted += len(out)
		if err != nil {
			j.fail = err
			return nil, err
		}
		if len(out) > 0 {
			return out, nil
		}
	}
}

func (j *joinIter) Close(err error) {
	if j.closed {
		return
	}
	j.closed = true
	j.left.Close(err)
	if j.fail != nil {
		j.sp.SetRows(j.in, j.emitted).SetStr("err", j.fail.Error()).End()
		j.jsp.SetStr("err", j.fail.Error()).End()
		return
	}
	j.sp.SetRows(j.in, j.emitted).SetProduced(float64(j.emitted)).End()
	j.jsp.SetRows(0, j.emitted).End()
}
