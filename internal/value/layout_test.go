package value

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// TestHashGolden pins Hash to the values the 64-byte layout produced. Shard
// routing, hash-join chains and HLL sketches all key on Hash, so a layout
// change must not move a single bit of it.
func TestHashGolden(t *testing.T) {
	cases := []struct {
		v    Value
		want uint64
	}{
		{Null(), 0xaf63bd4c8601b7df},
		{Bool(false), 0xcd92cf54dc615e5},
		{Bool(true), 0xedde65ec42d6cbc4},
		{Int(0), 0xcd92cf54dc615e5},
		{Int(1), 0xedde65ec42d6cbc4},
		{Int(-1), 0xaf94b0dfc57cce5d},
		{Int(42), 0x21fdd47119083f4f},
		{Int(math.MaxInt64), 0xaf9430dfc57bf4dd},
		{Int(math.MinInt64), 0xcd9acf54dc6ef65},
		{Float(0), 0xcd92cf54dc615e5},
		{Float(math.Copysign(0, -1)), 0xcd92cf54dc615e5},
		{Float(42), 0x21fdd47119083f4f},
		{Float(-3), 0xd7ee1615e30a929f},
		{Float(2.5), 0x797caf97b9371936},
		{Float(-0.1), 0xfc902c3ac8dc6acf},
		{Float(1e300), 0xcbc4272916fcfef8},
		{Float(math.Inf(1)), 0x79388a97b8fd0d8b},
		{Float(math.NaN()), 0x96d19ba0c2bf9812},
		{String(""), 0xaf63b94c8601b113},
		{String("a"), 0x8254f07b4e084b6},
		{String("42"), 0xb6eb501858a94935},
		{String("hello, world"), 0xbc0599603a386cf3},
		{IntList(nil), 0xaf63b84c8601af60},
		{IntList([]int64{}), 0xaf63b84c8601af60},
		{IntList([]int64{7}), 0xddcc48a58a146247},
		{IntList([]int64{3, 1, 2, 3, 1}), 0xc00e4777e2176fe0},
		{IntList([]int64{-5, 0, 5}), 0xc60dcaa696353cf9},
	}
	for _, c := range cases {
		if got := c.v.Hash(); got != c.want {
			t.Errorf("%s %v: Hash = %#x, want %#x", c.v.Kind(), c.v, got, c.want)
		}
	}
}

func TestValueIs32Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
}

// TestRoundTripsEveryKind checks every accessor on one or more values of
// each kind, including the payload edge cases the packed word must keep.
func TestRoundTripsEveryKind(t *testing.T) {
	type want struct {
		kind  Kind
		str   string
		b     bool
		i     int64
		f     float64
		list  []int64
		isNil bool // AsIntList returns nil
	}
	negZero := math.Copysign(0, -1)
	cases := []struct {
		v Value
		w want
	}{
		{Null(), want{kind: KindNull, str: "NULL", isNil: true}},
		{Bool(true), want{kind: KindBool, str: "true", b: true, i: 1, f: 1, isNil: true}},
		{Bool(false), want{kind: KindBool, str: "false", isNil: true}},
		{Int(-7), want{kind: KindInt, str: "-7", i: -7, f: -7, isNil: true}},
		{Int(math.MinInt64), want{kind: KindInt, str: "-9223372036854775808", i: math.MinInt64, f: math.MinInt64, isNil: true}},
		{Float(2.75), want{kind: KindFloat, str: "2.75", i: 2, f: 2.75, isNil: true}},
		{Float(negZero), want{kind: KindFloat, str: "-0", f: negZero, isNil: true}},
		{String(" 12 "), want{kind: KindString, str: " 12 ", i: 12, f: 12, isNil: true}},
		{String(""), want{kind: KindString, str: "", isNil: true}},
		{IntList([]int64{9, -1, 9}), want{kind: KindIntList, str: "[-1,9]", list: []int64{-1, 9}}},
		{IntList(nil), want{kind: KindIntList, str: "[]", list: []int64{}}},
	}
	for _, c := range cases {
		v, w := c.v, c.w
		if v.Kind() != w.kind || v.IsNull() != (w.kind == KindNull) {
			t.Errorf("%v: kind %s, want %s", v, v.Kind(), w.kind)
		}
		if v.String() != w.str || v.AsString() != w.str {
			t.Errorf("%s: String/AsString = %q/%q, want %q", w.kind, v.String(), v.AsString(), w.str)
		}
		if v.AsBool() != w.b {
			t.Errorf("%v: AsBool = %v", v, v.AsBool())
		}
		if v.AsInt() != w.i {
			t.Errorf("%v: AsInt = %d, want %d", v, v.AsInt(), w.i)
		}
		if got := v.AsFloat(); math.Float64bits(got) != math.Float64bits(w.f) {
			t.Errorf("%v: AsFloat = %v, want %v", v, got, w.f)
		}
		got := v.AsIntList()
		if (got == nil) != w.isNil || (!w.isNil && !reflect.DeepEqual(got, w.list)) {
			t.Errorf("%v: AsIntList = %#v, want %#v", v, got, w.list)
		}
		if v.Less(v) {
			t.Errorf("%v: Less is not irreflexive", v)
		}
		if w.kind != KindNull && !(w.kind == KindFloat && math.IsNaN(w.f)) && !v.Equal(v) {
			t.Errorf("%v: not Equal to itself", v)
		}
	}
	if !Float(0).Equal(Float(negZero)) || Float(math.NaN()).Equal(Float(math.NaN())) {
		t.Error("float Equal must follow IEEE comparison")
	}
	if !Float(math.Inf(-1)).Less(Float(-1e300)) || !Int(-1).Less(Int(0)) {
		t.Error("numeric Less must compare signed payloads")
	}
	if !IntList([]int64{-2}).Less(IntList([]int64{1})) || IntList([]int64{1}).Less(IntList([]int64{-2})) {
		t.Error("list Less must compare members as signed ints, not bytes")
	}
	if !IntList(nil).Less(IntList([]int64{math.MinInt64})) {
		t.Error("the empty list sorts first")
	}
}

// TestDeepEqualSeparatelyBuilt is why the payload is a string and not an
// unsafe.Pointer: tests compare output rows with reflect.DeepEqual, and two
// equal Values built from different memory must still compare equal.
func TestDeepEqualSeparatelyBuilt(t *testing.T) {
	pairs := [][2]Value{
		{Null(), Null()},
		{Bool(true), Bool(1 < 2)},
		{Int(5), Int(int64(len("abcde")))},
		{Float(0.5), Float(1 / 2.0)},
		{String("ab"), String(strings.Repeat("a", 1) + "b")},
		{String(""), String(strings.TrimSpace(" "))},
		{IntList([]int64{1, 2}), IntList([]int64{2, 1, 2})},
		{IntList(nil), IntList([]int64{})},
	}
	for _, p := range pairs {
		if !reflect.DeepEqual(p[0], p[1]) {
			t.Errorf("%s %v: equal values built separately are not DeepEqual", p[0].Kind(), p[0])
		}
	}
}
