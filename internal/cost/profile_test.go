package cost

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"monsoon/internal/obs"
	"monsoon/internal/plan"
)

// calibSpans is a minimal trace: a materialize span wrapping a scan and a Σ
// pass, plus a planning span the calibrator must ignore. The materialize
// window includes its children, so its rate must come from self time.
func calibSpans() []*obs.Span {
	return []*obs.Span{
		{ID: 3, Parent: 1, Trace: 7, Kind: obs.KPlan, Dur: 9 * time.Second},
		{ID: 5, Parent: 1, Trace: 7, Kind: obs.KMaterialize, Dur: 5 * time.Second, RowsOut: 100},
		{ID: 6, Parent: 5, Trace: 7, Kind: obs.KScan, Dur: 2 * time.Second, RowsOut: 1000},
		{ID: 7, Parent: 5, Trace: 7, Kind: obs.KSigma, Dur: 1 * time.Second, RowsIn: 500},
	}
}

func TestCalibratorRates(t *testing.T) {
	cal := NewCalibrator()
	cal.AddSpans(calibSpans())
	p, err := cal.Profile()
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Scan.SecondsPerObject; got != 2.0/1000 {
		t.Errorf("scan rate = %v, want 0.002", got)
	}
	// Σ is charged per re-scanned (RowsIn) object.
	if got := p.Sigma.SecondsPerObject; got != 1.0/500 {
		t.Errorf("sigma rate = %v, want 0.002", got)
	}
	// Materialize self time: 5s window minus 3s of children, over 100 rows.
	if got := p.Materialize.SecondsPerObject; got != 2.0/100 {
		t.Errorf("materialize rate = %v, want 0.02 (self time), got inclusive?", got)
	}
	// Unobserved kinds carry the mean observed rate, keeping costs finite.
	mean := (2.0/1000 + 1.0/500 + 2.0/100) / 3
	for _, r := range []Rate{p.Reuse, p.HashBuild, p.HashProbe, p.NestedLoop} {
		if r.SecondsPerObject != mean {
			t.Errorf("unobserved kind rate = %v, want mean %v", r.SecondsPerObject, mean)
		}
		if r.Spans != 0 || r.Objects != 0 {
			t.Errorf("unobserved kind must carry no evidence, got %+v", r)
		}
	}
	if p.Scan.Spans != 1 || p.Scan.Objects != 1000 {
		t.Errorf("scan evidence = %+v, want 1 span / 1000 objects", p.Scan)
	}
}

func TestCalibratorAddTreeMatchesAddSpans(t *testing.T) {
	spans := calibSpans()
	flat := NewCalibrator()
	flat.AddSpans(spans)
	pf, err := flat.Profile()
	if err != nil {
		t.Fatal(err)
	}

	// The same spans assembled into the TraceRing's tree shape must fold
	// identically (child order differs from emission order; rates must not).
	var treeSpans []*obs.Span
	treeSpans = append(treeSpans, &obs.Span{ID: 1, Trace: 7, Kind: obs.KAction, Dur: 20 * time.Second})
	treeSpans = append(treeSpans, spans...)
	roots := obs.BuildSpanTree(treeSpans)
	if len(roots) != 1 {
		t.Fatalf("got %d roots, want 1", len(roots))
	}
	tree := NewCalibrator()
	tree.AddTree(roots[0])
	pt, err := tree.Profile()
	if err != nil {
		t.Fatal(err)
	}
	if pf.Fingerprint() != pt.Fingerprint() {
		t.Errorf("AddTree profile %s != AddSpans profile %s", pt.Fingerprint(), pf.Fingerprint())
	}
}

func TestCalibratorRejectsEmptyCorpus(t *testing.T) {
	cal := NewCalibrator()
	// Planning and action spans carry no operator objects.
	cal.AddSpan(&obs.Span{ID: 1, Trace: 1, Kind: obs.KPlan, Dur: time.Second})
	cal.AddSpan(&obs.Span{ID: 2, Parent: 1, Trace: 1, Kind: obs.KAction, Dur: time.Second})
	cal.AddSpan(nil) // nil-safe
	if _, err := cal.Profile(); err == nil {
		t.Fatal("a corpus with no operator spans must be rejected")
	}
}

func TestProfileJSONRoundTrip(t *testing.T) {
	cal := NewCalibrator()
	cal.AddSpans(calibSpans())
	p, err := cal.Profile()
	if err != nil {
		t.Fatal(err)
	}
	js, err := p.WriteJSON()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "profile.json")
	if err := os.WriteFile(path, js, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != p.Fingerprint() {
		t.Errorf("round-tripped fingerprint %s != %s", got.Fingerprint(), p.Fingerprint())
	}
	if *got != *p {
		t.Errorf("round-tripped profile %+v != %+v", got, p)
	}
}

func TestLoadProfileErrors(t *testing.T) {
	if _, err := LoadProfile(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("missing file must error")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("{nope"), 0o644)
	if _, err := LoadProfile(bad); err == nil {
		t.Error("malformed JSON must error")
	}
	neg := filepath.Join(dir, "neg.json")
	os.WriteFile(neg, []byte(`{"scan":{"seconds_per_object":-1}}`), 0o644)
	_, err := LoadProfile(neg)
	if err == nil || !strings.Contains(err.Error(), "negative rate") {
		t.Errorf("negative rate must be rejected, got %v", err)
	}
}

func TestFingerprint(t *testing.T) {
	var nilP *CostProfile
	if got := nilP.Fingerprint(); got != "" {
		t.Errorf("nil profile fingerprint = %q, want empty", got)
	}
	a := &CostProfile{Scan: Rate{SecondsPerObject: 1}}
	b := &CostProfile{Scan: Rate{SecondsPerObject: 1}}
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("equal rates must share a fingerprint")
	}
	// Evidence fields do not enter the hash — only the rates the planner uses.
	b.Scan.Spans, b.Scan.Seconds, b.Scan.Objects = 99, 99, 99
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("evidence fields must not perturb the fingerprint")
	}
	b.Scan.SecondsPerObject = 2
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("different rates must not collide")
	}
}

// testProfile has a distinct prime rate per kind so each operator's
// contribution to a profiled cost is attributable in the assertions below.
func testProfile() *CostProfile {
	return &CostProfile{
		Scan:        Rate{SecondsPerObject: 1},
		Reuse:       Rate{SecondsPerObject: 2},
		HashBuild:   Rate{SecondsPerObject: 3},
		HashProbe:   Rate{SecondsPerObject: 5},
		NestedLoop:  Rate{SecondsPerObject: 7},
		Sigma:       Rate{SecondsPerObject: 11},
		Materialize: Rate{SecondsPerObject: 13},
	}
}

func TestProfiledPlanCostHashJoin(t *testing.T) {
	q, st := sec23(t, 10000, 10000)
	dv := &Deriver{Q: q, St: st, Miss: PanicMiss(), Profile: testProfile()}
	rs := plan.NewJoin(leaf(q, "R"), leaf(q, "S"))
	// F1(R)=F2(S) splits across the children, so the engine hash-joins with S
	// (the right child) as the build side: scans (1e6 + 1e4 at rate 1), probe
	// output 1e6 at rate 5, build input 1e4 at rate 3, root materialization
	// 1e6 at rate 13.
	want := 1*(1e6+1e4) + 5*1e6 + 3*1e4 + 13*1e6
	if got := dv.PlanCost(rs); got != want {
		t.Errorf("profiled hash-join cost = %v, want %v", got, want)
	}
	// Σ adds one extra pass over the root at the sigma rate.
	if got := dv.PlanCost(rs.WithSigma()); got != want+11*1e6 {
		t.Errorf("profiled Σ cost = %v, want %v", got, want+11*1e6)
	}
}

func TestProfiledPlanCostNestedLoop(t *testing.T) {
	q, st := sec23(t, 10000, 10000)
	dv := &Deriver{Q: q, St: st, Miss: PanicMiss(), Profile: testProfile()}
	// No predicate joins S directly to T: the engine would run a nested-loop
	// cross product (1e8 objects at rate 7), not a hash join.
	stT := plan.NewJoin(leaf(q, "S"), leaf(q, "T"))
	want := 1*(1e4+1e4) + 7*1e8 + 13*1e8
	if got := dv.PlanCost(stT); got != want {
		t.Errorf("profiled nested-loop cost = %v, want %v", got, want)
	}
}

func TestProfiledPlanCostReuseLeaf(t *testing.T) {
	q, st := sec23(t, 10000, 10000)
	// A materialized multi-alias leaf (R⋈S hardened at 1e6) is re-read at the
	// reuse rate, not the scan rate.
	st.SetCount("R+S", 1e6)
	dv := &Deriver{Q: q, St: st, Miss: PanicMiss(), Profile: testProfile()}
	tree := plan.NewJoin(leaf(q, "R", "S"), leaf(q, "T"))
	// F3(R)=F4(T) splits across the children → hash join; output
	// 1e6·1e4/max(1000, 10000) = 1e6.
	want := 2*1e6 + 1*1e4 + 5*1e6 + 3*1e4 + 13*1e6
	if got := dv.PlanCost(tree); got != want {
		t.Errorf("profiled reuse-leaf cost = %v, want %v", got, want)
	}
}

func TestNilProfileKeepsLegacyCost(t *testing.T) {
	q, st := sec23(t, 10000, 10000)
	tree := plan.NewJoin(plan.NewJoin(leaf(q, "R"), leaf(q, "S")), leaf(q, "T"))
	legacy := (&Deriver{Q: q, St: st.Clone(), Miss: PanicMiss()}).PlanCost(tree)
	nilProf := (&Deriver{Q: q, St: st.Clone(), Miss: PanicMiss(), Profile: nil}).PlanCost(tree)
	if legacy != nilProf {
		t.Errorf("nil profile must be the flat object model: %v vs %v", nilProf, legacy)
	}
	// And the flat model is the pinned §4.4 sum, unchanged by this package's
	// calibration machinery existing at all.
	if legacy != 1e6+1e4+1e4+1e6+1e6 {
		t.Errorf("legacy cost drifted: %v", legacy)
	}
}

func TestProfiledBatchCostSums(t *testing.T) {
	q, st := sec23(t, 10000, 10000)
	dv := &Deriver{Q: q, St: st, Miss: PanicMiss(), Profile: testProfile()}
	rs := plan.NewJoin(leaf(q, "R"), leaf(q, "S"))
	sigmaS := leaf(q, "S").WithSigma()
	want := dv.PlanCost(rs) + dv.PlanCost(sigmaS)
	if got := dv.BatchCost([]*plan.Node{rs, sigmaS}); got != want {
		t.Errorf("profiled batch cost = %v, want %v", got, want)
	}
}

// Guard against the reuse/scan branch keying off the wrong condition: a
// single-alias leaf must never be priced as a reuse even when a count for it
// is already recorded.
func TestProfiledSingleAliasLeafIsScan(t *testing.T) {
	q, st := sec23(t, 10000, 10000)
	dv := &Deriver{Q: q, St: st, Miss: PanicMiss(), Profile: testProfile()}
	_ = dv.NodeCount(leaf(q, "R")) // records the count
	want := 1*1e6 + 13*1e6         // scan rate + root materialization
	if got := dv.PlanCost(leaf(q, "R")); got != want {
		t.Errorf("single-alias leaf cost = %v, want scan-rated %v", got, want)
	}
}
