package cost

import (
	"strings"
	"testing"

	"monsoon/internal/plan"
)

func TestExplainRendersTree(t *testing.T) {
	q, st := sec23(t, 10000, 10000)
	dv := &Deriver{Q: q, St: st, Miss: PanicMiss()}
	tree := plan.NewJoin(plan.NewJoin(leaf(q, "R"), leaf(q, "S")), leaf(q, "T"))
	out := Explain(dv, tree, nil)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("explain has %d lines, want 5:\n%s", len(lines), out)
	}
	for _, want := range []string{"⋈ [R+S+T]", "⋈ [R+S]", "scan R", "scan S", "scan T",
		"est=1e+06", "preds{"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
	// Indentation: leaves are deeper than their join.
	if !strings.HasPrefix(lines[1], "  ⋈") || !strings.HasPrefix(lines[2], "    scan") {
		t.Errorf("indentation wrong:\n%s", out)
	}
}

func TestExplainWithActuals(t *testing.T) {
	q, st := sec23(t, 10000, 10000)
	dv := &Deriver{Q: q, St: st, Miss: PanicMiss()}
	tree := plan.NewJoin(leaf(q, "R"), leaf(q, "S"))
	out := Explain(dv, tree, map[string]float64{"R+S": 2e6})
	if !strings.Contains(out, "actual=2e+06") {
		t.Errorf("actuals missing:\n%s", out)
	}
	if !strings.Contains(out, "q=2.00") {
		t.Errorf("q-error missing (est 1e6 vs actual 2e6 → 2.00):\n%s", out)
	}
}

func TestExplainSigmaAndReuseAndCross(t *testing.T) {
	q, st := sec23(t, 10000, 10000)
	st.SetCount("R+S", 123)
	dv := &Deriver{Q: q, St: st, Miss: DefaultMiss(0.1)}
	sig := leaf(q, "S").WithSigma()
	if out := Explain(dv, sig, nil); !strings.Contains(out, "Σ scan S") {
		t.Errorf("Σ marker missing:\n%s", out)
	}
	reuse := plan.NewJoin(leaf(q, "R", "S"), leaf(q, "T"))
	out := Explain(dv, reuse, nil)
	if !strings.Contains(out, "reuse [R+S]") {
		t.Errorf("materialized reuse missing:\n%s", out)
	}
	cross := plan.NewJoin(leaf(q, "S"), leaf(q, "T"))
	if out := Explain(dv, cross, nil); !strings.Contains(out, "cross-product") {
		t.Errorf("cross product marker missing:\n%s", out)
	}
}
