package stats

// table is the map type a Store keeps each kind of statistic in. It holds
// its entries in a slice and adds a hash index only once it outgrows
// indexFrom entries: a simulated EXECUTE writes a handful of statistics to
// its overlay, and a Go map would allocate eight slots and a header before
// the first one. The zero value is an empty table.
type table[K comparable] struct {
	list  []entry[K]
	index map[K]int // position in list of every key; nil while small
}

type entry[K comparable] struct {
	key K
	val float64
}

// indexFrom is the size past which a table indexes its entries; below it a
// linear scan beats hashing the key.
const indexFrom = 16

func (t *table[K]) get(k K) (float64, bool) {
	if i := t.find(k); i >= 0 {
		return t.list[i].val, true
	}
	return 0, false
}

func (t *table[K]) find(k K) int {
	if t.index != nil {
		if i, ok := t.index[k]; ok {
			return i
		}
		return -1
	}
	for i := range t.list {
		if t.list[i].key == k {
			return i
		}
	}
	return -1
}

func (t *table[K]) set(k K, v float64) {
	if i := t.find(k); i >= 0 {
		t.list[i].val = v
		return
	}
	t.list = append(t.list, entry[K]{k, v})
	switch {
	case t.index != nil:
		t.index[k] = len(t.list) - 1
	case len(t.list) > indexFrom:
		t.index = make(map[K]int, 2*len(t.list))
		for i, e := range t.list {
			t.index[e.key] = i
		}
	}
}

func (t *table[K]) len() int { return len(t.list) }

// reset empties the table, keeping its memory.
func (t *table[K]) reset() {
	clear(t.list)
	t.list = t.list[:0]
	clear(t.index)
}

// clone returns an independent copy.
func (t *table[K]) clone() table[K] {
	c := table[K]{list: append([]entry[K](nil), t.list...)}
	if t.index != nil {
		c.index = make(map[K]int, len(t.index))
		for k, i := range t.index {
			c.index[k] = i
		}
	}
	return c
}

// setAll copies every entry of src into t.
func (t *table[K]) setAll(src *table[K]) {
	for _, e := range src.list {
		t.set(e.key, e.val)
	}
}
