// Package stats implements the statistics store S of the MDP state (§4.1):
// object counts c(expr) for materialized or hypothesized expressions, and
// distinct-value counts d(term, expr | partner) for UDF terms. The store
// distinguishes *measured* statistics (hardened by real execution, valid for
// every partner) from *assumed* statistics (sampled from a prior during MCTS
// simulation, valid only for the partner expression they were sampled
// against — the paper's d(F, r|s) notation).
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"monsoon/internal/randx"
)

// RawKey returns the statistics key under which the *unfiltered* stored base
// table mounted at alias is counted. The plain alias key ("R") always denotes
// the RA expression over R with every applicable selection applied; the raw
// key ("raw:R") is the input size, which is assumed known up front (§4.1:
// "we assume that all input set sizes are available").
func RawKey(alias string) string { return "raw:" + alias }

// DKey identifies a measured distinct count: term ID over an expression.
type DKey struct {
	Term int
	Expr string
}

// CKey identifies an assumed (prior-sampled) distinct count, conditioned on
// the partner expression it would be joined with.
type CKey struct {
	Term    int
	Expr    string
	Partner string
}

// Store holds the statistics set S. Clone produces an independent copy;
// Overlay produces a cheap copy-on-write view for MCTS simulation.
//
// Every method of a root store (one made by New or Clone) is safe for
// concurrent use: a daemon shares one seed store across sessions (each
// clones it, some merge hardened facts back), so all map access goes through
// an RWMutex.
//
// An overlay (made by Overlay) answers lookups from its own writes first and
// from the store it was made over after that, down to the root, and writes
// only into its own tables, which allocate only what is written. It belongs to
// one simulated MDP state and so to one goroutine: it takes no lock, and it
// reads the stores below it without their locks. Those must therefore not
// change while an overlay over them is in use. The planner guarantees that:
// a simulated state's store is final once its transition returns, and a
// session's store only changes in real execution, between searches.
type Store struct {
	mu       sync.RWMutex
	counts   table[string]
	measured table[DKey]
	assumed  table[CKey]

	// base is the store an overlay writes over; nil for a root store.
	base *Store
	// digest caches this store's share of BucketDigest until its next
	// write; digestOK says whether it is current. Atomic, because search
	// shards digest a shared root store concurrently.
	digest   atomic.Uint64
	digestOK atomic.Bool
}

// New creates an empty store.
func New() *Store { return &Store{} }

// Clone returns a deep copy: a root store holding every entry s resolves.
func (s *Store) Clone() *Store {
	if s.base != nil {
		c := s.base.Clone()
		c.counts.setAll(&s.counts)
		c.measured.setAll(&s.measured)
		c.assumed.setAll(&s.assumed)
		return c
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return &Store{counts: s.counts.clone(), measured: s.measured.clone(), assumed: s.assumed.clone()}
}

// Overlay returns a copy-on-write view of s: it resolves every statistic s
// does, and what is written to it stays in it.
func (s *Store) Overlay() *Store { return &Store{base: s} }

// ResetOverlay turns o, an overlay or a zero Store, into a fresh Overlay of
// base, keeping the memory of its tables. A caller that derives throwaway
// statistics over many states (the rollout policy) reuses one overlay this
// way.
func (o *Store) ResetOverlay(base *Store) {
	o.counts.reset()
	o.measured.reset()
	o.assumed.reset()
	o.digestOK.Store(false)
	o.base = base
}

// lookup resolves k in the tables t selects, from s down to the root. A root
// store looked up directly takes its read lock; one reached through an
// overlay does not (see Store).
func lookup[K comparable](s *Store, t func(*Store) *table[K], k K) (float64, bool) {
	if s.base == nil {
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	return find(s, t, k)
}

// find is lookup without the lock; a nil s finds nothing.
func find[K comparable](s *Store, t func(*Store) *table[K], k K) (float64, bool) {
	for ; s != nil; s = s.base {
		if v, ok := t(s).get(k); ok {
			return v, true
		}
	}
	return 0, false
}

func counts(s *Store) *table[string] { return &s.counts }
func measured(s *Store) *table[DKey] { return &s.measured }
func assumed(s *Store) *table[CKey]  { return &s.assumed }

// lock and unlock guard a root store's tables for writing; overlays are
// single-goroutine and skip them.
func (s *Store) lock() {
	if s.base == nil {
		s.mu.Lock()
	}
}

func (s *Store) unlock() {
	if s.base == nil {
		s.mu.Unlock()
	}
}

// mustBeRoot panics on an overlay: the whole-store mutations below exist for
// the driver's real statistics, never for simulated ones.
func (s *Store) mustBeRoot(op string) {
	if s.base != nil {
		panic("stats: " + op + " on an overlay")
	}
}

// MergeFrom copies src's hardened facts — expression counts and measured
// distinct values — into s, overwriting on key collision. Assumed (prior-
// sampled) entries are deliberately not merged: they are only valid for the
// run that sampled them. The daemon's opt-in statistics write-back uses this
// to fold what one query learned into the shared seed store. src is snapshotted
// under its read lock before s takes its write lock, so no lock ordering
// between two stores is ever needed.
func (s *Store) MergeFrom(src *Store) {
	s.mustBeRoot("MergeFrom")
	src = src.Clone() // a snapshot: no lock on two stores at once
	s.mu.Lock()
	s.counts.setAll(&src.counts)
	s.measured.setAll(&src.measured)
	s.digestOK.Store(false)
	s.mu.Unlock()
}

// SetCount records c(expr).
func (s *Store) SetCount(expr string, c float64) {
	s.lock()
	s.counts.set(expr, c)
	s.digestOK.Store(false)
	s.unlock()
}

// Count looks up c(expr).
func (s *Store) Count(expr string) (float64, bool) { return lookup(s, counts, expr) }

// SetMeasured records a hardened distinct count for (term, expr), valid for
// any partner.
func (s *Store) SetMeasured(term int, expr string, d float64) {
	s.lock()
	s.measured.set(DKey{Term: term, Expr: expr}, d)
	s.digestOK.Store(false)
	s.unlock()
}

// Measured looks up a hardened distinct count.
func (s *Store) Measured(term int, expr string) (float64, bool) {
	return lookup(s, measured, DKey{Term: term, Expr: expr})
}

// SetAssumed records a prior-sampled distinct count for (term, expr) with
// respect to a partner expression.
func (s *Store) SetAssumed(term int, expr, partner string, d float64) {
	s.lock()
	s.assumed.set(CKey{Term: term, Expr: expr, Partner: partner}, d)
	s.digestOK.Store(false)
	s.unlock()
}

// Distinct resolves d(term, expr | partner): a measured value wins; otherwise
// an assumed value for this exact partner; otherwise a miss.
func (s *Store) Distinct(term int, expr, partner string) (float64, bool) {
	if d, ok := s.Measured(term, expr); ok {
		return d, true
	}
	return lookup(s, assumed, CKey{Term: term, Expr: expr, Partner: partner})
}

// HasMeasured reports whether a hardened distinct count exists for the term
// over the expression; Σ-usefulness checks rely on it.
func (s *Store) HasMeasured(term int, expr string) bool {
	_, ok := s.Measured(term, expr)
	return ok
}

// CountEntries reports how many expression cardinalities are known.
func (s *Store) CountEntries() int {
	if s.base != nil {
		return s.Clone().CountEntries()
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.counts.len()
}

// MeasuredEntries reports how many hardened distinct counts are known.
func (s *Store) MeasuredEntries() int {
	if s.base != nil {
		return s.Clone().MeasuredEntries()
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.measured.len()
}

// AssumedEntries reports how many prior-sampled distinct counts are held.
func (s *Store) AssumedEntries() int {
	if s.base != nil {
		return s.Clone().AssumedEntries()
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.assumed.len()
}

// DropAssumed clears every prior-sampled entry. The Monsoon driver calls it
// after each real EXECUTE so the next planning round starts from hardened
// facts only.
func (s *Store) DropAssumed() {
	s.mustBeRoot("DropAssumed")
	s.mu.Lock()
	s.assumed = table[CKey]{}
	s.digestOK.Store(false)
	s.mu.Unlock()
}

// BucketSignature renders the store with every value bucketed by log2,
// deterministically ordered. MCTS uses it to key chance-node outcomes:
// sampled worlds with materially different statistics split into different
// subtrees, while near-identical ones (e.g. recurring spike-and-slab atoms)
// share one. Expression keys are %q-quoted: they are comma-joined alias sets,
// so raw interpolation would let two materially different stores collide on
// the line and field delimiters (e.g. a key containing ",c:" splicing into a
// neighboring line) and wrongly merge distinct chance-node outcomes.
func (s *Store) BucketSignature() string {
	if s.base != nil {
		return s.Clone().BucketSignature()
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	lines := make([]string, 0, s.counts.len()+s.measured.len()+s.assumed.len())
	for _, e := range s.counts.list {
		lines = append(lines, fmt.Sprintf("c:%q:%d", e.key, logBucket(e.val)))
	}
	for _, e := range s.measured.list {
		lines = append(lines, fmt.Sprintf("m:%d:%q:%d", e.key.Term, e.key.Expr, logBucket(e.val)))
	}
	for _, e := range s.assumed.list {
		lines = append(lines, fmt.Sprintf("a:%d:%q:%q:%d", e.key.Term, e.key.Expr, e.key.Partner, logBucket(e.val)))
	}
	sort.Strings(lines)
	return strings.Join(lines, ",")
}

// BucketDigest is BucketSignature as a 64-bit digest: two stores get equal
// digests exactly when they get equal signatures, barring a hash collision.
// Each entry is hashed with its kind, term, each expression key with its
// length (which keeps the fields apart as the signature's quoting does) and
// its log2 bucket; the entry hashes are summed, so map order does not
// matter. Every store caches its share of the sum until its next write: a
// root store the sum of its entries, an overlay the sum of its entries less
// the hashes of the entries below that they shadow. It never allocates.
func (s *Store) BucketDigest() uint64 {
	var sum uint64
	for ; s != nil; s = s.base {
		sum += s.ownDigest()
	}
	return sum
}

// ownDigest is the store's share of BucketDigest, cached until its next
// write. An overlay's share depends on the stores below it, which do not
// change while it is in use.
func (s *Store) ownDigest() uint64 {
	if s.digestOK.Load() {
		return s.digest.Load()
	}
	if s.base == nil {
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	var sum uint64
	for _, e := range s.counts.list {
		sum += countHash(e.key, e.val)
		if w, ok := find(s.base, counts, e.key); ok {
			sum -= countHash(e.key, w)
		}
	}
	for _, e := range s.measured.list {
		sum += measuredHash(e.key, e.val)
		if w, ok := find(s.base, measured, e.key); ok {
			sum -= measuredHash(e.key, w)
		}
	}
	for _, e := range s.assumed.list {
		sum += assumedHash(e.key, e.val)
		if w, ok := find(s.base, assumed, e.key); ok {
			sum -= assumedHash(e.key, w)
		}
	}
	s.digest.Store(sum)
	s.digestOK.Store(true)
	return sum
}

func countHash(k string, v float64) uint64 {
	return hashEnd(hashStr(hashWord(hashSeed, 'c'), k), v)
}

func measuredHash(k DKey, v float64) uint64 {
	return hashEnd(hashStr(hashWord(hashWord(hashSeed, 'm'), uint64(k.Term)), k.Expr), v)
}

func assumedHash(k CKey, v float64) uint64 {
	h := hashWord(hashWord(hashSeed, 'a'), uint64(k.Term))
	return hashEnd(hashStr(hashStr(h, k.Expr), k.Partner), v)
}

// FNV-1a over 64-bit words and strings, finished with SplitMix64 so that
// the summed entry hashes spread over the whole word.
const (
	hashSeed  = 14695981039346656037
	hashPrime = 1099511628211
)

func hashWord(h, w uint64) uint64 { return (h ^ w) * hashPrime }

func hashStr(h uint64, s string) uint64 {
	h = hashWord(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * hashPrime
	}
	return h
}

// hashEnd adds the value's log2 bucket and finishes the entry hash.
func hashEnd(h uint64, v float64) uint64 {
	return randx.SplitMix64(hashWord(h, uint64(int64(logBucket(v)))))
}

func logBucket(x float64) int {
	if x <= 0 {
		return -1
	}
	return int(math.Floor(math.Log2(x + 1)))
}

// String renders the store content deterministically (sorted) for debugging
// and golden tests.
func (s *Store) String() string {
	if s.base != nil {
		return s.Clone().String()
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	var lines []string
	for _, e := range s.counts.list {
		lines = append(lines, fmt.Sprintf("c(%s)=%.6g", e.key, e.val))
	}
	for _, e := range s.measured.list {
		lines = append(lines, fmt.Sprintf("d[t%d](%s)=%.6g", e.key.Term, e.key.Expr, e.val))
	}
	for _, e := range s.assumed.list {
		lines = append(lines, fmt.Sprintf("d~[t%d](%s|%s)=%.6g", e.key.Term, e.key.Expr, e.key.Partner, e.val))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
