package plan

import (
	"testing"

	"monsoon/internal/query"
)

// testQ mounts every alias the tests below build trees over.
var testQ = query.NewBuilder("plan-test").
	Rel("A", "A").Rel("B", "B").Rel("C", "C").
	Rel("R", "R").Rel("S", "S").Rel("T", "T").
	MustBuild()

func l(names ...string) *Node { return NewLeaf(testQ.Set(names...)) }

func TestLeafAndJoin(t *testing.T) {
	r, s := l("R"), l("S")
	j := NewJoin(r, s)
	if !r.IsLeaf() || j.IsLeaf() {
		t.Error("IsLeaf wrong")
	}
	if j.Aliases().Key() != "R+S" || j.Key() != "R+S" {
		t.Errorf("join key = %q", j.Key())
	}
	if r.Key() != "R" {
		t.Errorf("leaf key = %q", r.Key())
	}
}

func TestJoinOverlapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("overlapping join must panic")
		}
	}()
	NewJoin(l("R", "S"), l("S"))
}

func TestSigmaCopies(t *testing.T) {
	n := l("S")
	sig := n.WithSigma()
	if !sig.Sigma || n.Sigma {
		t.Error("WithSigma must copy, not mutate")
	}
	back := sig.WithoutSigma()
	if back.Sigma {
		t.Error("WithoutSigma failed")
	}
	if sig.Key() != n.Key() {
		t.Error("Σ must not change result identity")
	}
}

func TestString(t *testing.T) {
	tree := NewJoin(NewJoin(l("R"), l("S")), l("T"))
	if got := tree.String(); got != "((R⋈S)⋈T)" {
		t.Errorf("String = %q", got)
	}
	if got := tree.WithSigma().String(); got != "Σ(((R⋈S)⋈T))" {
		t.Errorf("Σ String = %q", got)
	}
	if got := NewJoin(l("R", "S"), l("T")).String(); got != "([R+S]⋈T)" {
		t.Errorf("materialized leaf String = %q", got)
	}
}

func TestLeaves(t *testing.T) {
	tree := NewJoin(NewJoin(l("R"), l("S")), l("T"))
	leaves := tree.Leaves()
	if len(leaves) != 3 {
		t.Fatalf("leaves = %d", len(leaves))
	}
	want := []string{"R", "S", "T"}
	for i, lf := range leaves {
		if lf.Key() != want[i] {
			t.Errorf("leaf %d = %q, want %q", i, lf.Key(), want[i])
		}
	}
}

func TestLeftDeep(t *testing.T) {
	tree := LeftDeep([]query.AliasSet{
		testQ.Set("A"), testQ.Set("B"), testQ.Set("C"),
	})
	if tree.String() != "((A⋈B)⋈C)" {
		t.Errorf("LeftDeep = %q", tree.String())
	}
	single := LeftDeep([]query.AliasSet{testQ.Set("A")})
	if !single.IsLeaf() {
		t.Error("single-leaf LeftDeep should be a leaf")
	}
}

func TestLeftDeepEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("LeftDeep(nil) must panic")
		}
	}()
	LeftDeep(nil)
}

func TestEqual(t *testing.T) {
	a := NewJoin(l("R"), l("S"))
	b := NewJoin(l("R"), l("S"))
	c := NewJoin(l("S"), l("R"))
	if !a.Equal(b) {
		t.Error("identical trees must be Equal")
	}
	if a.Equal(c) {
		t.Error("Equal is structural; swapped children differ")
	}
	if a.Equal(a.WithSigma()) {
		t.Error("Σ marker must matter for Equal")
	}
	if a.Equal(nil) {
		t.Error("non-nil != nil")
	}
	var n *Node
	if !n.Equal(nil) {
		t.Error("nil == nil")
	}
	if a.Equal(l("R")) {
		t.Error("join != leaf")
	}
}
