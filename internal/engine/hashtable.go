package engine

import (
	"fmt"
	"math"
	"math/bits"

	"monsoon/internal/expr"
	"monsoon/internal/table"
	"monsoon/internal/value"
)

// joinTable is a hash join's build side. Its key is every join predicate
// whose two sides bind to opposite children: part 0, the primary part, is
// the first such predicate and routes a row to sub-table Hash(part 0) mod S,
// exactly as the storage layer routes the shard column, so co-partitioned
// builds need no exchange. The other parts only refine the slot hash.
//
// The table is flat: one entry per build row in each per-row array, and per
// sub-table an open-addressed array of head slots, one per distinct combined
// key hash. A slot chains its rows through next in ascending row order, so a
// probe emits its matches in the order the row source holds them — the
// order a nested loop over the same rows would emit. After the build the
// table is read-only, so probe workers share it without locks.
//
// Only computed key parts are stored. An identity part is a column of the
// build row, so a probe compares it where the row holds it; a TPC-H build,
// keyed on plain columns, copies no key at all.
type joinTable struct {
	rows   []table.Row   // the build rows
	cols   []int         // cols[j] is the build column of identity part j, -1 if part j is stored
	stored int           // stored parts per row
	keys   []value.Value // keys[i*stored:(i+1)*stored] are build row i's stored parts, in part order
	hash   []uint64      // combined key hash of build row i
	// next[i] is the row after i in its chain, plus one (0 ends the chain);
	// -1 marks a row with a NULL primary part, which is never chained.
	next []int32
	subs []slotTable
}

// slotTable is one sub-table's open-addressed head slots. A slot's index is
// the top bits of mix(hash): every hash in sub-table h has hash mod S == h
// for its primary part, so its low bits are correlated within a sub-table,
// while mix spreads every input bit over the top bits.
type slotTable struct {
	slots []slot
	shift uint // 64 - log2(len(slots))
	used  int  // occupied slots: distinct key hashes
}

// slot heads the chain of one combined key hash. head and tail are row
// indices plus one; head == 0 marks an empty slot. The tail keeps appends
// O(1) while the chain stays in insertion — ascending — order.
type slot struct {
	hash       uint64
	head, tail int32
}

// maxBuildRows bounds a build side so that row indices plus one fit the
// int32 chain links.
const maxBuildRows = math.MaxInt32 - 1

// minSlots is a sub-table's initial slot count. Slots grow with the
// distinct keys, not the rows: a build of a skewed column holds a few
// thousand rows per key.
const minSlots = 16

// newSlotTable makes a sub-table of size slots, a power of two.
func newSlotTable(size int) slotTable {
	return slotTable{slots: make([]slot, size), shift: uint(64 - bits.TrailingZeros(uint(size)))}
}

// grow doubles the slot array once it is two thirds full, so a probe that
// misses stops at an empty slot after a short run. Chains stay where they
// are; only their heads move.
func (st *slotTable) grow() {
	old := st.slots
	*st = newSlotTable(2 * len(old))
	for _, s := range old {
		if s.head != 0 {
			*st.find(s.hash) = s
			st.used++
		}
	}
}

// mix is the 64-bit finalizer of MurmurHash3: every input bit affects every
// output bit.
func mix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// combine folds the hash of one more key part into a key hash. It is
// order-sensitive, so the keys (a, b) and (b, a) do not collide.
func combine(h, part uint64) uint64 { return mix(h) ^ part }

// find returns the slot of hash h: its chain's, or the empty slot where the
// chain would start.
func (st *slotTable) find(h uint64) *slot {
	mask := uint64(len(st.slots) - 1)
	for at := mix(h) >> st.shift; ; at = (at + 1) & mask {
		if s := &st.slots[at]; s.head == 0 || s.hash == h {
			return s
		}
	}
}

// insert appends row i to the chain of hash h.
func (st *slotTable) insert(h uint64, i int32, next []int32) {
	s := st.find(h)
	if s.head != 0 {
		next[s.tail-1] = i + 1
		s.tail = i + 1
		return
	}
	*s = slot{hash: h, head: i + 1, tail: i + 1}
	if st.used++; 3*st.used >= 2*len(st.slots) {
		st.grow()
	}
}

// chain returns the first build row (plus one) that may match a probe key
// whose primary part hashes to h1 and whose combined hash is h.
func (t *joinTable) chain(h1, h uint64) int32 {
	return t.subs[h1%uint64(len(t.subs))].find(h).head
}

// matches reports whether build row i's key equals the probe key part by
// part. Value.Equal makes a NULL part match nothing and an Int match an
// equal Float, as the residual it replaces did.
func (t *joinTable) matches(i int, key []value.Value) bool {
	row, own := t.rows[i], t.keys[i*t.stored:(i+1)*t.stored]
	for j, v := range key {
		var part value.Value
		if c := t.cols[j]; c >= 0 {
			part = row[c]
		} else {
			part, own = own[0], own[1:]
		}
		if !part.Equal(v) {
			return false
		}
	}
	return true
}

// buildTable is the one hash-join build, for every row source and routing
// rule: S sub-tables routed on the primary part (S = 1 is one table), over
// w workers.
//
// Phase 1 fans out over contiguous row chunks: each worker evaluates every
// key part of its rows and their combined hash into the per-row arrays.
// Phase 2 fans out over sub-tables: each worker owns whole sub-tables and
// inserts their rows in ascending row order. Chains therefore hold
// ascending rows at any worker count, and the table is identical to the
// serial one. rowHash, when set, caches Hash(part 0) per row (the layout's
// RowHash on the zero-copy co-partitioned path).
//
// It returns the table and the number of rows whose primary part is not
// NULL: the rows a reshuffle moves.
func buildTable(rows []table.Row, rowHash []uint64, keys []*expr.Binding, s int, budget *Budget, w int, run workerRunner) (*joinTable, int, error) {
	n := len(rows)
	if n > maxBuildRows {
		return nil, 0, fmt.Errorf("engine: hash build of %d rows exceeds the %d-row limit", n, maxBuildRows)
	}
	t := &joinTable{
		rows: rows,
		cols: make([]int, len(keys)),
		hash: make([]uint64, n),
		next: make([]int32, n),
		subs: make([]slotTable, s),
	}
	for j, b := range keys {
		if c, ok := b.Column(); ok {
			t.cols[j] = c
		} else {
			t.cols[j] = -1
			t.stored++
		}
	}
	t.keys = make([]value.Value, n*t.stored)
	var sub []int32 // sub-table of each row, -1 if unchained; implied 0 when S = 1
	if s > 1 {
		sub = make([]int32, n)
	}
	ins := make([]int, max(w, 1)) // rows chained, per worker
	err := run(n, w, func(worker, lo, hi int) error {
		bs := keys
		if w > 1 {
			bs = make([]*expr.Binding, len(keys))
			for j, b := range keys {
				bs[j] = b.Clone()
			}
		}
		m := meter{b: budget}
	rows:
		for i := lo; i < hi; i++ {
			// Building produces nothing but must still honor the deadline.
			if err := m.poll(); err != nil {
				return err
			}
			row, own := rows[i], t.keys[i*t.stored:(i+1)*t.stored]
			var h uint64
			for j, b := range bs {
				v := b.Eval(row)
				if t.cols[j] < 0 {
					own[0], own = v, own[1:]
				}
				if j > 0 {
					h = combine(h, v.Hash())
					continue
				}
				if v.IsNull() {
					t.next[i] = -1
					if sub != nil {
						sub[i] = -1
					}
					continue rows
				}
				if rowHash != nil {
					h = rowHash[i]
				} else {
					h = v.Hash()
				}
				if sub != nil {
					sub[i] = int32(h % uint64(s))
				}
				ins[worker]++
			}
			t.hash[i] = h
		}
		return nil
	})
	inserted := 0
	for _, c := range ins {
		inserted += c
	}
	if err != nil {
		return nil, inserted, err
	}
	err = run(s, min(w, s), func(_, lo, hi int) error {
		for si := lo; si < hi; si++ {
			t.subs[si] = newSlotTable(minSlots)
		}
		m := meter{b: budget}
		for i := range rows {
			if err := m.poll(); err != nil {
				return err
			}
			// Sub-tables share next, so with several of them a worker
			// reads only sub, where -1 marks a NULL primary part.
			si := 0
			if sub != nil {
				si = int(sub[i])
			} else if t.next[i] < 0 {
				continue
			}
			if si >= lo && si < hi {
				t.subs[si].insert(t.hash[i], int32(i), t.next)
			}
		}
		return nil
	})
	if err != nil {
		return nil, inserted, err
	}
	return t, inserted, nil
}
