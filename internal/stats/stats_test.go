package stats

import (
	"math/rand"
	"strings"
	"testing"
)

func TestCounts(t *testing.T) {
	s := New()
	if _, ok := s.Count("R"); ok {
		t.Error("empty store should miss")
	}
	s.SetCount("R", 1e6)
	if c, ok := s.Count("R"); !ok || c != 1e6 {
		t.Errorf("Count = %v,%v", c, ok)
	}
	if s.CountEntries() != 1 {
		t.Error("CountEntries wrong")
	}
}

func TestDistinctResolutionOrder(t *testing.T) {
	s := New()
	if _, ok := s.Distinct(0, "R", "S"); ok {
		t.Error("should miss initially")
	}
	s.SetAssumed(0, "R", "S", 100)
	if d, ok := s.Distinct(0, "R", "S"); !ok || d != 100 {
		t.Errorf("assumed lookup = %v,%v", d, ok)
	}
	// Assumed is partner-specific.
	if _, ok := s.Distinct(0, "R", "T"); ok {
		t.Error("assumed stat must not apply to other partners")
	}
	// Measured overrides assumed for every partner.
	s.SetMeasured(0, "R", 777)
	if d, _ := s.Distinct(0, "R", "S"); d != 777 {
		t.Error("measured must win over assumed")
	}
	if d, ok := s.Distinct(0, "R", "T"); !ok || d != 777 {
		t.Error("measured must apply to all partners")
	}
	if !s.HasMeasured(0, "R") || s.HasMeasured(1, "R") || s.HasMeasured(0, "S") {
		t.Error("HasMeasured wrong")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := New()
	s.SetCount("R", 5)
	s.SetMeasured(0, "R", 2)
	s.SetAssumed(1, "R", "S", 3)
	c := s.Clone()
	c.SetCount("R", 99)
	c.SetMeasured(0, "R", 99)
	c.SetAssumed(1, "R", "S", 99)
	c.SetCount("NEW", 1)
	if v, _ := s.Count("R"); v != 5 {
		t.Error("clone mutated original count")
	}
	if v, _ := s.Measured(0, "R"); v != 2 {
		t.Error("clone mutated original measured")
	}
	if v, _ := s.Distinct(1, "R", "S"); v != 3 {
		t.Error("clone mutated original assumed")
	}
	if _, ok := s.Count("NEW"); ok {
		t.Error("clone additions leaked to original")
	}
}

func TestDropAssumed(t *testing.T) {
	s := New()
	s.SetAssumed(0, "R", "S", 10)
	s.SetMeasured(0, "R", 20)
	s.DropAssumed()
	if s.AssumedEntries() != 0 {
		t.Error("DropAssumed left entries")
	}
	if d, ok := s.Distinct(0, "R", "S"); !ok || d != 20 {
		t.Error("measured entries must survive DropAssumed")
	}
}

func TestEntriesCounters(t *testing.T) {
	s := New()
	s.SetMeasured(0, "A", 1)
	s.SetMeasured(1, "A", 1)
	s.SetAssumed(0, "A", "B", 1)
	if s.MeasuredEntries() != 2 || s.AssumedEntries() != 1 {
		t.Errorf("entries = %d/%d", s.MeasuredEntries(), s.AssumedEntries())
	}
}

func TestBucketSignature(t *testing.T) {
	s := New()
	s.SetCount("R", 1000)
	s.SetMeasured(0, "R", 500)
	s.SetAssumed(1, "S", "R", 7)
	sig := s.BucketSignature()
	if sig != s.BucketSignature() {
		t.Error("signature must be deterministic")
	}
	// Values in the same log2 bucket share a signature...
	t1 := New()
	t1.SetCount("R", 1000)
	t2 := New()
	t2.SetCount("R", 900)
	if t1.BucketSignature() != t2.BucketSignature() {
		t.Error("values in one log2 bucket must share signatures")
	}
	// ...values in very different buckets split.
	t3 := New()
	t3.SetCount("R", 1e6)
	if t1.BucketSignature() == t3.BucketSignature() {
		t.Error("distant values must split signatures")
	}
	// Zero and negative magnitudes are representable.
	z := New()
	z.SetCount("E", 0)
	if z.BucketSignature() == "" || !strings.Contains(z.BucketSignature(), "-1") {
		t.Errorf("zero count signature wrong: %q", z.BucketSignature())
	}
}

func TestStringDeterministic(t *testing.T) {
	s := New()
	s.SetCount("R", 10)
	s.SetCount("S", 20)
	s.SetMeasured(0, "R", 5)
	s.SetAssumed(1, "S", "R", 7)
	a, b := s.String(), s.String()
	if a != b {
		t.Error("String must be deterministic")
	}
	for _, want := range []string{"c(R)=10", "c(S)=20", "d[t0](R)=5", "d~[t1](S|R)=7"} {
		if !strings.Contains(a, want) {
			t.Errorf("String missing %q in:\n%s", want, a)
		}
	}
}

// TestBucketSignatureDelimiterCollision pins the %q-quoting of expression
// keys. Keys are comma-joined alias sets, so under raw interpolation the
// two stores below rendered the identical signature "c:A:3,c:B:3" — one from
// two entries, the other from a single key containing the line and field
// delimiters — and MCTS wrongly merged materially different chance-node
// outcomes into one subtree.
func TestBucketSignatureDelimiterCollision(t *testing.T) {
	two := New()
	two.SetCount("A", 10)
	two.SetCount("B", 10)
	spliced := New()
	spliced.SetCount(`A":3,c:"B`, 10)
	if two.BucketSignature() == spliced.BucketSignature() {
		t.Errorf("delimiter-containing key collides:\n%q\n%q",
			two.BucketSignature(), spliced.BucketSignature())
	}
	// The historical raw-format collision, spelled out: the spliced key
	// embeds the exact bytes the old renderer used as structure.
	old := New()
	old.SetCount("A:3,c:B", 10)
	if two.BucketSignature() == old.BucketSignature() {
		t.Errorf("legacy collision pair still collides: %q", two.BucketSignature())
	}
	// Quoting keeps distinct measured/assumed keys distinct too.
	m1 := New()
	m1.SetMeasured(0, `R"S`, 100)
	m2 := New()
	m2.SetMeasured(0, `R\"S`, 100)
	if m1.BucketSignature() == m2.BucketSignature() {
		t.Error("escaped-quote keys collide in measured entries")
	}
	a1 := New()
	a1.SetAssumed(1, "R,S", "T", 50)
	a2 := New()
	a2.SetAssumed(1, "R", "S,T", 50)
	if a1.BucketSignature() == a2.BucketSignature() {
		t.Error("expr/partner boundary is ambiguous in assumed entries")
	}
}

// TestBucketSignatureCloneStable is a plan-cache key-soundness invariant:
// cloning a store — what every MCTS rollout and every estimate freeze does —
// must not perturb the signature, or cache keys computed before and after a
// planning pass would diverge on identical statistics.
func TestBucketSignatureCloneStable(t *testing.T) {
	s := New()
	s.SetCount("R", 1000)
	s.SetCount("R+S", 31)
	s.SetMeasured(0, "R", 500)
	s.SetMeasured(2, "R+S", 12)
	s.SetAssumed(1, "S", "R", 7)
	c := s.Clone()
	if s.BucketSignature() != c.BucketSignature() {
		t.Errorf("clone signature diverged:\n%q\n%q", s.BucketSignature(), c.BucketSignature())
	}
	// Mutating the clone afterwards must not leak back.
	c.SetCount("R", 1e6)
	if s.BucketSignature() == c.BucketSignature() {
		t.Error("mutated clone must split from the original")
	}
	if got := s.Clone().BucketSignature(); got != s.BucketSignature() {
		t.Errorf("original drifted after clone mutation: %q", got)
	}
}

// TestBucketSignatureHardeningBoundary pins the plan cache's invalidation
// mechanism: hardening a count across a log₂ bucket boundary changes the
// signature (so stale memoized plans become unreachable), while hardening
// within a bucket leaves it unchanged (so bucket-equivalent worlds keep
// sharing plans). Bucket edges sit at v+1 = 2^k: 1000 and 1023 land in
// buckets 9 and 10, while 600 shares bucket 9 with 1000.
func TestBucketSignatureHardeningBoundary(t *testing.T) {
	base := New()
	base.SetCount("R+S", 1000)
	within := New()
	within.SetCount("R+S", 600)
	if base.BucketSignature() != within.BucketSignature() {
		t.Errorf("within-bucket hardening must keep the key: %q vs %q",
			base.BucketSignature(), within.BucketSignature())
	}
	across := New()
	across.SetCount("R+S", 1023)
	if base.BucketSignature() == across.BucketSignature() {
		t.Error("hardening across a log2 boundary must change the key")
	}
	// The same holds for measured distinct counts, the other hardened kind.
	mBase, mWithin, mAcross := New(), New(), New()
	mBase.SetMeasured(3, "R+S", 1000)
	mWithin.SetMeasured(3, "R+S", 600)
	mAcross.SetMeasured(3, "R+S", 1023)
	if mBase.BucketSignature() != mWithin.BucketSignature() {
		t.Error("within-bucket measured hardening must keep the key")
	}
	if mBase.BucketSignature() == mAcross.BucketSignature() {
		t.Error("boundary-crossing measured hardening must change the key")
	}
	// Hardening a previously unknown statistic (new entry) always changes
	// the key: an unknown and a known-but-bucket-equal world are different
	// planning states.
	grown := New()
	grown.SetCount("R+S", 1000)
	grown.SetMeasured(3, "R+S", 8)
	if grown.BucketSignature() == base.BucketSignature() {
		t.Error("newly hardened entries must change the key")
	}
}

// TestOverlayCopyOnWrite: an overlay resolves everything its root does, keeps
// its own writes (and shadowing) to itself, and an overlay of an overlay
// inherits its parent's writes.
func TestOverlayCopyOnWrite(t *testing.T) {
	root := New()
	root.SetCount("R", 100)
	root.SetMeasured(0, "R", 10)
	root.SetAssumed(1, "S", "R", 3)
	o := root.Overlay()
	if c, ok := o.Count("R"); !ok || c != 100 {
		t.Errorf("overlay Count(R) = %v, %v", c, ok)
	}
	if d, ok := o.Distinct(1, "S", "R"); !ok || d != 3 {
		t.Errorf("overlay Distinct = %v, %v", d, ok)
	}
	o.SetCount("R", 50)
	o.SetCount("R+S", 7)
	o.SetMeasured(1, "S", 4) // measured wins over the root's assumed value
	if c, _ := root.Count("R"); c != 100 {
		t.Error("overlay write leaked into the root")
	}
	if _, ok := root.Count("R+S"); ok {
		t.Error("overlay count leaked into the root")
	}
	if c, _ := o.Count("R"); c != 50 {
		t.Error("overlay does not shadow the root")
	}
	if d, _ := o.Distinct(1, "S", "R"); d != 4 {
		t.Errorf("measured overlay value must win, got %v", d)
	}
	oo := o.Overlay()
	oo.SetAssumed(2, "T", "R", 9)
	if c, _ := oo.Count("R+S"); c != 7 {
		t.Error("nested overlay lost its parent's write")
	}
	if _, ok := o.Distinct(2, "T", "R"); ok {
		t.Error("nested overlay write leaked into its parent")
	}
	flat := oo.Clone()
	if flat.String() != oo.String() || flat.CountEntries() != 2 || flat.AssumedEntries() != 2 {
		t.Errorf("Clone of an overlay:\n%s\nwant\n%s", flat, oo)
	}
}

// TestBucketDigestMatchesSignature: over random stores and overlays, equal
// digests exactly when equal signatures, and an overlay digests like its
// flattened clone.
func TestBucketDigestMatchesSignature(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keys := []string{"R", "S", "R+S", "raw:R", "T"}
	fill := func(s *Store, n int) {
		for i := 0; i < n; i++ {
			k := keys[rng.Intn(len(keys))]
			v := float64(rng.Intn(40))
			switch rng.Intn(3) {
			case 0:
				s.SetCount(k, v)
			case 1:
				s.SetMeasured(rng.Intn(3), k, v)
			default:
				s.SetAssumed(rng.Intn(3), k, keys[rng.Intn(len(keys))], v)
			}
		}
	}
	bySig := map[string]uint64{}
	byDigest := map[uint64]string{}
	for i := 0; i < 400; i++ {
		root := New()
		fill(root, rng.Intn(4))
		s := root
		if i%2 == 1 {
			s = root.Overlay()
			fill(s, rng.Intn(4))
			if i%4 == 3 {
				s = s.Overlay()
				fill(s, rng.Intn(3))
			}
			if s.BucketDigest() != s.Clone().BucketDigest() {
				t.Fatalf("overlay digest differs from its clone's: %s", s)
			}
		}
		sig, dig := s.BucketSignature(), s.BucketDigest()
		if d, ok := bySig[sig]; ok && d != dig {
			t.Fatalf("signature %q has digests %x and %x", sig, d, dig)
		}
		if g, ok := byDigest[dig]; ok && g != sig {
			t.Fatalf("digest %x covers %q and %q", dig, g, sig)
		}
		bySig[sig], byDigest[dig] = dig, sig
	}
	if len(bySig) < 100 {
		t.Errorf("only %d distinct stores generated", len(bySig))
	}
}

func TestBucketDigestDoesNotAllocate(t *testing.T) {
	root := New()
	root.SetCount("R", 100)
	root.SetMeasured(0, "R", 10)
	o := root.Overlay()
	o.SetCount("R", 3)
	o.SetAssumed(1, "S", "R", 3)
	if allocs := testing.AllocsPerRun(100, func() { _ = o.BucketDigest() }); allocs != 0 {
		t.Errorf("BucketDigest allocated %.1f times per call", allocs)
	}
}
