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
// every inner row when there is no hash table — and tests the residuals
// where the two rows sit. A pair that passes is only recorded; once the
// batch is matched, emit builds every joined row out of one allocation.
// Each fan-out worker runs the same body through its own kernel of the crew.
type pairKernel struct {
	inner []table.Row     // build rows (hash join) or the inner relation (nested loop)
	ht    *joinTable      // nil for a nested loop
	pb    []*expr.Binding // probe key parts over the outer schema (hash join only)
	key   []value.Value   // scratch: the probe key of the current outer row
	res   []residual
	m     meter
	hits  []match       // scratch: the pairs the current call matched
	crew  []*pairKernel // the kernels of a fan-out, this one first; kept for the join's life
}

// match is one passing pair: an outer row's index in its batch and an inner
// row's index.
type match struct{ l, r int }

// clone gives a fan-out worker private bindings, scratch and deadline
// countdown; the rows and the hash table are read-only and shared.
func (k *pairKernel) clone() *pairKernel {
	c := *k
	c.m = meter{b: k.m.b}
	c.pb = make([]*expr.Binding, len(k.pb))
	for i, b := range k.pb {
		c.pb[i] = b.Clone()
	}
	c.key = make([]value.Value, len(k.key))
	c.res = make([]residual, len(k.res))
	for i, r := range k.res {
		c.res[i] = residual{lhs: r.lhs.Clone(), k: r.k}
		if r.rhs != nil {
			c.res[i].rhs = r.rhs.Clone()
		}
	}
	c.hits, c.crew = nil, nil
	return &c
}

// workers returns the kernels of a w-worker fan-out: this one, then clones
// made the first time a fan-out needs them.
func (k *pairKernel) workers(w int) []*pairKernel {
	if len(k.crew) == 0 {
		k.crew = []*pairKernel{k}
	}
	for len(k.crew) < w {
		k.crew = append(k.crew, k.clone())
	}
	return k.crew[:w]
}

// rowWork is the work one outer row costs: one probe, or a pass over the
// inner side. It sizes the fan-out.
func (k *pairKernel) rowWork() int {
	if k.ht != nil {
		return 1
	}
	return len(k.inner)
}

// loop matches the outer rows [lo, hi) of a batch into k.hits, in outer
// order. It returns the operator's rows-in count for the run: outer rows
// probed, or row pairs scanned. On a budget error the pairs matched so far
// stay recorded.
func (k *pairKernel) loop(outer []table.Row, lo, hi int) (int, error) {
	k.hits = k.hits[:0]
	if k.ht == nil {
		return k.nestedLoop(outer, lo, hi)
	}
	return k.probe(outer, lo, hi)
}

// probe is the hash-join loop body. A key with a NULL part never matches.
func (k *pairKernel) probe(outer []table.Row, lo, hi int) (int, error) {
	key := k.key
outer:
	for i := lo; i < hi; i++ {
		// Matchless probes produce nothing; poll the deadline anyway.
		if err := k.m.poll(); err != nil {
			return hi - lo, err
		}
		l := outer[i]
		var h1, h uint64
		for j, b := range k.pb {
			v := b.Eval(l)
			if v.IsNull() {
				continue outer
			}
			key[j] = v
			if hv := v.Hash(); j == 0 {
				h1, h = hv, hv
			} else {
				h = combine(h, hv)
			}
		}
		for r := k.ht.chain(h1, h); r != 0; r = k.ht.next[r-1] {
			bi := int(r - 1)
			if !k.ht.matches(bi, key) || !k.pass(l, k.inner[bi]) {
				continue
			}
			k.hits = append(k.hits, match{i, bi})
			if err := k.m.charge(1); err != nil {
				return hi - lo, err
			}
		}
	}
	return hi - lo, nil
}

// nestedLoop is the filtered-product loop body, the only strategy when no
// predicate separates the children.
func (k *pairKernel) nestedLoop(outer []table.Row, lo, hi int) (int, error) {
	pairs := 0
	for i := lo; i < hi; i++ {
		l := outer[i]
		for ri, r := range k.inner {
			pairs++
			if !k.pass(l, r) {
				// Even rejected pairs consume work; poll the deadline.
				if err := k.m.poll(); err != nil {
					return pairs, err
				}
				continue
			}
			k.hits = append(k.hits, match{i, ri})
			if err := k.m.charge(1); err != nil {
				return pairs, err
			}
		}
	}
	return pairs, nil
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

// emit builds the joined rows l ++ r of the recorded matches, in match
// order, from one slab of values and one row slice, both sized exactly.
// Each row is a window of the slab capped at its own end, so an append to
// one row reallocates it instead of overwriting the next.
func (k *pairKernel) emit(outer []table.Row) []table.Row {
	if len(k.hits) == 0 {
		return nil
	}
	first := k.hits[0]
	lw := len(outer[first.l])
	w := lw + len(k.inner[first.r])
	slab := make([]value.Value, len(k.hits)*w)
	out := make([]table.Row, len(k.hits))
	for i, m := range k.hits {
		row := slab[i*w : (i+1)*w : (i+1)*w]
		copy(row, outer[m.l])
		copy(row[lw:], k.inner[m.r])
		out[i] = row
	}
	return out
}

// run joins one batch over w contiguous chunks, one crew kernel per chunk,
// each emitting its own matches; the outputs are stitched in chunk order —
// the serial order. At w == 1 the runner calls the body inline.
func (k *pairKernel) run(outer []table.Row, w int, run workerRunner) ([]table.Row, int, error) {
	crew := k.workers(w)
	outs := make([][]table.Row, w)
	ins := make([]int, w)
	err := run(len(outer), w, func(worker, lo, hi int) error {
		c := crew[worker]
		var err error
		ins[worker], err = c.loop(outer, lo, hi)
		outs[worker] = c.emit(outer)
		return err
	})
	in := 0
	for _, n := range ins {
		in += n
	}
	return stitch(outs), in, err
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
	run     workerRunner
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
		if w > 1 && !j.fanned {
			j.fanned = true
			j.sp.SetNum("workers", float64(w))
		}
		out, in, err := j.k.run(batch, w, j.run)
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
