// Package rel provides the data substrate for the radiv library: an
// infinite totally ordered universe of basic data values, tuples over
// that universe, finite relations (sets of tuples of a fixed arity),
// database schemas and databases.
//
// The definitions follow Section 2 of Leinders and Van den Bussche,
// "On the complexity of division and set joins in the relational
// algebra" (PODS 2005 / JCSS 73 (2007) 538–549). In particular the
// universe U is totally ordered (Definition 1 uses < in selections and
// join conditions) and tuples are positional with 1-based indices.
package rel

import (
	"fmt"
	"strconv"
)

// Kind discriminates the two families of basic data values.
type Kind uint8

const (
	// KindInt is a 64-bit integer value.
	KindInt Kind = iota
	// KindString is a string value.
	KindString
)

// Value is an element of the universe U. The universe is the disjoint
// union of the integers and the strings, totally ordered as follows:
// integers come first in their natural order, then strings in
// lexicographic order. Within a single database one normally uses a
// single kind; the total order across kinds merely keeps the universe
// well defined (the paper only requires *some* infinite total order).
//
// The zero Value is the integer 0.
type Value struct {
	kind Kind
	i    int64
	s    string
}

// Int returns the integer value n as a Value.
func Int(n int64) Value { return Value{kind: KindInt, i: n} }

// String returns the string value s as a Value.
//
// Note: strings support "insertion" in the total order: for any two
// distinct strings x < y there is a string strictly between them
// (e.g. x+"!" when y is not a prefix-extension, or binary search on
// bytes). The Lemma 24 pumping construction in internal/core relies on
// this to create fresh domain elements with a prescribed relative
// order.
func Str(s string) Value { return Value{kind: KindString, s: s} }

// Kind reports which family the value belongs to.
func (v Value) Kind() Kind { return v.kind }

// IsInt reports whether the value is an integer.
func (v Value) IsInt() bool { return v.kind == KindInt }

// AsInt returns the integer payload. It panics when the value is not an
// integer; callers should check Kind first.
func (v Value) AsInt() int64 {
	if v.kind != KindInt {
		panic("rel: AsInt on non-integer value")
	}
	return v.i
}

// AsString returns the string payload. It panics when the value is not
// a string.
func (v Value) AsString() string {
	if v.kind != KindString {
		panic("rel: AsString on non-string value")
	}
	return v.s
}

// Cmp compares two values in the total order of the universe. It
// returns -1, 0 or +1.
func (v Value) Cmp(w Value) int {
	if v.kind != w.kind {
		if v.kind < w.kind {
			return -1
		}
		return 1
	}
	switch v.kind {
	case KindInt:
		switch {
		case v.i < w.i:
			return -1
		case v.i > w.i:
			return 1
		}
		return 0
	default:
		switch {
		case v.s < w.s:
			return -1
		case v.s > w.s:
			return 1
		}
		return 0
	}
}

// Less reports v < w in the order of the universe.
func (v Value) Less(w Value) bool { return v.Cmp(w) < 0 }

// Equal reports v = w.
func (v Value) Equal(w Value) bool { return v.Cmp(w) == 0 }

// String renders the value for display: integers in decimal, strings
// verbatim.
func (v Value) String() string {
	if v.kind == KindInt {
		return strconv.FormatInt(v.i, 10)
	}
	return v.s
}

// GoString renders the value as a Go expression, for debugging.
func (v Value) GoString() string {
	if v.kind == KindInt {
		return fmt.Sprintf("rel.Int(%d)", v.i)
	}
	return fmt.Sprintf("rel.Str(%q)", v.s)
}

// appendKey appends a self-delimiting encoding of v to dst. The
// encoding is injective across kinds and is used to build map keys for
// tuples. It is not order preserving.
func (v Value) appendKey(dst []byte) []byte {
	if v.kind == KindInt {
		dst = append(dst, 'i')
		dst = strconv.AppendInt(dst, v.i, 10)
		dst = append(dst, 0)
		return dst
	}
	dst = append(dst, 's')
	dst = strconv.AppendInt(dst, int64(len(v.s)), 10)
	dst = append(dst, ':')
	dst = append(dst, v.s...)
	dst = append(dst, 0)
	return dst
}

// ParseValue parses the display form of a value: a decimal integer
// becomes an integer value, everything else a string value.
func ParseValue(s string) Value {
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return Int(n)
	}
	return Str(s)
}
