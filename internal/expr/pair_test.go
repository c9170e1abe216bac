package expr

import (
	"reflect"
	"strings"
	"testing"

	"monsoon/internal/table"
	"monsoon/internal/value"
)

func TestIsIdentity(t *testing.T) {
	if !Identity("r.a").IsIdentity() {
		t.Error("Identity must report IsIdentity")
	}
	if !Identity("r.a").Rebase(map[string]string{"r": "r2"}).IsIdentity() {
		t.Error("Rebase must keep IsIdentity")
	}
	named := &UDF{Name: "id", Args: []string{"r.a"}, Fn: func(a []value.Value) value.Value { return a[0] }}
	for _, u := range []*UDF{named, Lower("r.a"), ConcatKey("r.a", "s.b")} {
		if u.IsIdentity() {
			t.Errorf("%s must not report IsIdentity", u)
		}
	}
}

// TestEvalPairMatchesConcat checks that evaluating on the pair (l, r) is
// exactly Eval on l ++ r, for an identity, one-sided and two-sided UDFs,
// with arguments on either side of the split.
func TestEvalPairMatchesConcat(t *testing.T) {
	s := schema("r.a", "r.b", "s.a", "s.b", "s.c")
	l := table.Row{value.String("7"), value.Int(3)}
	rows := []table.Row{
		{value.String("x"), value.Int(4), value.Null()},
		{value.String(""), value.Int(-9), value.String("z")},
	}
	udfs := []*UDF{
		Identity("r.a"), Identity("s.c"),
		Lower("s.a"), Prefix("r.a", 0),
		ConcatKey("r.a", "s.a"), ConcatKey("s.c", "r.a"), ConcatKey("s.a", "s.c"),
		SumMod("r.b", "s.b", 5), SumMod("s.b", "r.a", 3),
	}
	for _, u := range udfs {
		b, ok := u.Bind(s)
		if !ok {
			t.Fatalf("%s: bind failed", u)
		}
		for _, r := range rows {
			whole := append(append(table.Row{}, l...), r...)
			want := b.Eval(whole)
			if got := b.EvalPair(l, r); !reflect.DeepEqual(got, want) {
				t.Errorf("%s on %v ++ %v: EvalPair = %v, Eval = %v", u, l, r, got, want)
			}
			// A split anywhere else reads the same row.
			if got := b.EvalPair(whole[:3], whole[3:]); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: EvalPair at split 3 = %v, want %v", u, got, want)
			}
		}
	}
}

func TestCloneHasOwnScratch(t *testing.T) {
	b, _ := ConcatKey("r.a", "r.b").Bind(schema("r.a", "r.b"))
	c := b.Clone()
	if &c.args[0] == &b.args[0] || c.UDF() != b.UDF() {
		t.Fatal("Clone must share the UDF but not the scratch")
	}
	row := table.Row{value.String("p"), value.String("q")}
	if got := c.Eval(row).AsString(); got != "p|q" {
		t.Errorf("clone Eval = %q", got)
	}
}

// TestLibraryConstantsValidated checks that a bad constant fails when the
// UDF is built, with a message naming the function and the constant,
// rather than later inside an engine worker.
func TestLibraryConstantsValidated(t *testing.T) {
	cases := []struct {
		name  string
		build func()
		want  string
	}{
		{"HashMod 0", func() { HashMod("r.a", 0) }, "HashMod(r.a, 0)"},
		{"HashMod -3", func() { HashMod("r.a", -3) }, "HashMod(r.a, -3)"},
		{"SumMod 0", func() { SumMod("r.a", "s.b", 0) }, "SumMod(r.a, s.b, 0)"},
		{"SumMod -1", func() { SumMod("r.a", "s.b", -1) }, "SumMod(r.a, s.b, -1)"},
		{"Prefix -1", func() { Prefix("r.a", -1) }, "Prefix(r.a, -1)"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, c.want) {
					t.Errorf("panic %q, want one naming %q", msg, c.want)
				}
			}()
			c.build()
		})
	}
	// The boundary values are legal.
	HashMod("r.a", 1)
	SumMod("r.a", "s.b", 1)
	Prefix("r.a", 0)
}
