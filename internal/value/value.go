// Package value defines the scalar value model shared by the storage layer,
// the expression evaluator, and the statistics subsystem. A Value is a
// 32-byte tagged union; it is passed by value everywhere and never aliases
// mutable state.
package value

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"unsafe"
)

// Kind enumerates the runtime type of a Value.
type Kind uint8

// The supported kinds.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindIntList // immutable sorted list of int64, used for set-valued columns
)

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindIntList:
		return "intlist"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a tagged union of the scalar types understood by the engine.
// The zero Value is SQL NULL.
//
// The layout is one payload word plus one string header, 32 bytes in all,
// because rows are slices of Values and the executor copies them by the
// million. n holds an int or bool payload, or a float's IEEE bits. s holds
// a string's bytes, or an IntList's sorted members as the raw bytes of an
// []int64: a string is immutable and compares and hashes by content, so two
// separately built equal Values stay reflect.DeepEqual, which an
// unsafe.Pointer field would not give.
type Value struct {
	kind Kind
	n    uint64
	s    string
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Bool wraps a bool.
func Bool(b bool) Value {
	var n uint64
	if b {
		n = 1
	}
	return Value{kind: KindBool, n: n}
}

// Int wraps an int64.
func Int(i int64) Value { return Value{kind: KindInt, n: uint64(i)} }

// Float wraps a float64.
func Float(f float64) Value { return Value{kind: KindFloat, n: math.Float64bits(f)} }

// String wraps a string.
func String(s string) Value { return Value{kind: KindString, s: s} }

// IntList wraps a list of int64s as an immutable set value. The input slice is
// copied, sorted, and deduplicated so that two lists with the same members
// compare equal regardless of insertion order.
func IntList(xs []int64) Value {
	cp := make([]int64, len(xs))
	copy(cp, xs)
	sort.Slice(cp, func(a, b int) bool { return cp[a] < cp[b] })
	out := cp[:0]
	for i, x := range cp {
		if i == 0 || x != cp[i-1] {
			out = append(out, x)
		}
	}
	// The string aliases out's backing array, which nothing else references
	// and which is 8-byte aligned, so AsIntList can view it as []int64.
	return Value{kind: KindIntList, s: unsafe.String((*byte)(unsafe.Pointer(unsafe.SliceData(out))), len(out)*8)}
}

// emptyList is what AsIntList returns for an empty list: empty but non-nil,
// so callers can tell it from a non-list.
var emptyList = []int64{}

// i and f view the numeric payload word.
func (v Value) i() int64   { return int64(v.n) }
func (v Value) f() float64 { return math.Float64frombits(v.n) }

// Kind reports the runtime kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsBool returns the boolean payload; it is false for non-bool values.
func (v Value) AsBool() bool { return v.kind == KindBool && v.n != 0 }

// AsInt returns the integer payload, coercing floats by truncation and
// parsing numeric strings; non-numeric values yield 0.
func (v Value) AsInt() int64 {
	switch v.kind {
	case KindInt, KindBool:
		return v.i()
	case KindFloat:
		return int64(v.f())
	case KindString:
		n, err := strconv.ParseInt(strings.TrimSpace(v.s), 10, 64)
		if err != nil {
			return 0
		}
		return n
	default:
		return 0
	}
}

// AsFloat returns the floating-point payload, coercing ints.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindFloat:
		return v.f()
	case KindInt, KindBool:
		return float64(v.i())
	case KindString:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.s), 64)
		if err != nil {
			return 0
		}
		return f
	default:
		return 0
	}
}

// AsString returns the string payload; non-strings are formatted.
func (v Value) AsString() string {
	switch v.kind {
	case KindString:
		return v.s
	default:
		return v.String()
	}
}

// AsIntList returns the list payload. The returned slice must not be mutated.
func (v Value) AsIntList() []int64 {
	if v.kind != KindIntList {
		return nil
	}
	if len(v.s) == 0 {
		return emptyList
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(unsafe.StringData(v.s))), len(v.s)/8)
}

// String renders the value for display and for use as a grouping key.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindBool:
		if v.n != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(v.i(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.f(), 'g', -1, 64)
	case KindString:
		return v.s
	case KindIntList:
		var sb strings.Builder
		sb.WriteByte('[')
		for i, x := range v.AsIntList() {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(strconv.FormatInt(x, 10))
		}
		sb.WriteByte(']')
		return sb.String()
	default:
		return "?"
	}
}

// Equal reports deep equality between two values. Values of different kinds
// are unequal except int/float comparisons, which compare numerically. NULL
// equals nothing, including NULL (SQL semantics for predicates).
func (v Value) Equal(o Value) bool {
	if v.kind == KindNull || o.kind == KindNull {
		return false
	}
	if v.kind != o.kind {
		if isNumeric(v.kind) && isNumeric(o.kind) {
			return v.AsFloat() == o.AsFloat()
		}
		return false
	}
	switch v.kind {
	case KindBool, KindInt:
		return v.n == o.n
	case KindFloat:
		return v.f() == o.f()
	case KindString, KindIntList:
		// Lists hold their members' bytes, so equal bytes are equal lists.
		return v.s == o.s
	default:
		return false
	}
}

// Less imposes a total order used for sorting and ordered comparisons. NULL
// sorts before everything; values of different kinds order by kind.
func (v Value) Less(o Value) bool {
	if v.kind != o.kind {
		if isNumeric(v.kind) && isNumeric(o.kind) {
			return v.AsFloat() < o.AsFloat()
		}
		return v.kind < o.kind
	}
	switch v.kind {
	case KindNull:
		return false
	case KindBool, KindInt:
		return v.i() < o.i()
	case KindFloat:
		return v.f() < o.f()
	case KindString:
		return v.s < o.s
	case KindIntList:
		a, b := v.AsIntList(), o.AsIntList()
		n := min(len(a), len(b))
		for i := 0; i < n; i++ {
			if a[i] != b[i] {
				return a[i] < b[i]
			}
		}
		return len(a) < len(b)
	default:
		return false
	}
}

func isNumeric(k Kind) bool { return k == KindInt || k == KindFloat || k == KindBool }

// FNV-1a, 64-bit, written out so hashing a value allocates nothing.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

func fnvU64(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(x>>(8*i)))
	}
	return h
}

// Hash returns a 64-bit hash of the value, suitable for hash joins and
// sketches. Numerically equal ints and floats hash identically. It is the
// FNV-1a hash of a kind tag followed by the payload in little-endian order;
// shard routing and sketches depend on these exact values.
func (v Value) Hash() uint64 {
	h := uint64(fnvOffset)
	switch v.kind {
	case KindNull:
		h = fnvByte(h, 0)
	case KindBool, KindInt:
		h = fnvU64(fnvByte(h, 2), v.n)
	case KindFloat:
		if f := v.f(); f == math.Trunc(f) && f >= math.MinInt64 && f <= math.MaxInt64 {
			h = fnvU64(fnvByte(h, 2), uint64(int64(f)))
		} else {
			h = fnvU64(fnvByte(h, 3), v.n)
		}
	case KindString:
		h = fnvByte(h, 4)
		for i := 0; i < len(v.s); i++ {
			h = fnvByte(h, v.s[i])
		}
	case KindIntList:
		h = fnvByte(h, 5)
		for _, x := range v.AsIntList() {
			h = fnvU64(h, uint64(x))
		}
	}
	return h
}
