package storage

import (
	"encoding/binary"
	"math"
)

// Query filters: a Filter maps field paths to conditions. All
// conditions must hold (implicit AND), mirroring the common MongoDB
// find shape {f1: v1, f2: {$gt: v2}}.

// Op is a comparison operator in a filter condition.
type Op int

const (
	OpEq Op = iota
	OpNe
	OpGt
	OpGte
	OpLt
	OpLte
	OpIn
	OpExists
)

// Cond is a single condition on a field. A range condition (OpGt,
// OpGte, OpLt, OpLte) may carry a second range bound in Op2/Value2,
// making the condition a two-sided interval on one field — e.g.
// {$gte: lo, $lt: hi} — which planIndex turns into a closed-interval
// index scan instead of a one-sided scan plus residual filtering.
// Op2 is meaningful only when the primary op is a range op; the zero
// Op2 means no second bound.
type Cond struct {
	Op     Op
	Value  any
	Values []any // for OpIn
	Op2    Op    // optional second range bound (OpGt/OpGte/OpLt/OpLte)
	Value2 any
}

// Filter maps field paths to conditions; all must match.
type Filter map[string]Cond

// Eq, Ne, Gt, Gte, Lt, Lte, In and Exists build conditions.
func Eq(v any) Cond  { return Cond{Op: OpEq, Value: mustNormalize(v)} }
func Ne(v any) Cond  { return Cond{Op: OpNe, Value: mustNormalize(v)} }
func Gt(v any) Cond  { return Cond{Op: OpGt, Value: mustNormalize(v)} }
func Gte(v any) Cond { return Cond{Op: OpGte, Value: mustNormalize(v)} }
func Lt(v any) Cond  { return Cond{Op: OpLt, Value: mustNormalize(v)} }
func Lte(v any) Cond { return Cond{Op: OpLte, Value: mustNormalize(v)} }
func Exists() Cond   { return Cond{Op: OpExists} }

// Range builds the half-open two-sided condition lo <= x < hi.
func Range(lo, hi any) Cond {
	return Cond{Op: OpGte, Value: mustNormalize(lo), Op2: OpLt, Value2: mustNormalize(hi)}
}

// IsRangeOp reports whether op is an ordering comparison usable as an
// interval bound.
func IsRangeOp(op Op) bool {
	return op == OpGt || op == OpGte || op == OpLt || op == OpLte
}

// And combines two one-sided range conditions on the same field into a
// two-sided condition. Both operands must be range conditions without
// second bounds; anything else panics (a programming error, like an
// unindexable key type).
func (c Cond) And(other Cond) Cond {
	if !IsRangeOp(c.Op) || c.Op2 != 0 || !IsRangeOp(other.Op) || other.Op2 != 0 {
		panic("storage: Cond.And requires two one-sided range conditions")
	}
	c.Op2, c.Value2 = other.Op, other.Value
	return c
}
func In(vs ...any) Cond {
	out := make([]any, len(vs))
	for i, v := range vs {
		out[i] = mustNormalize(v)
	}
	return Cond{Op: OpIn, Values: out}
}

func mustNormalize(v any) any {
	n, err := Normalize(v)
	if err != nil {
		panic(err)
	}
	return n
}

// Matches reports whether the document satisfies every condition.
func (f Filter) Matches(d Document) bool {
	for path, c := range f {
		v, ok := d.Get(path)
		if !c.matches(v, ok) {
			return false
		}
	}
	return true
}

// matchesEncoded is Matches over a stored document: each condition
// finds and decodes only its own field, and numbers and strings decode
// into locals that do not escape, so matching them allocates nothing
// (short strings) or one copy.
func (f Filter) matchesEncoded(e *EncodedDoc) bool {
	for path, c := range f {
		raw, ok := lookup(e.b, path)
		var match bool
		switch {
		case !ok:
			match = c.matches(nil, false)
		case raw[0] == btInt64:
			v, _ := binary.Varint(raw[1:])
			match = c.matches(v, true)
		case raw[0] == btFloat:
			match = c.matches(math.Float64frombits(binary.LittleEndian.Uint64(raw[1:])), true)
		case raw[0] == btString:
			_, n := binary.Uvarint(raw[1:])
			match = c.matches(string(raw[1+n:]), true)
		default:
			r := decoder{s: string(raw)}
			match = c.matches(r.value(), true)
		}
		if !match {
			return false
		}
	}
	return true
}

func (c Cond) matches(v any, present bool) bool {
	switch c.Op {
	case OpExists:
		return present
	case OpEq:
		return present && Equal(v, c.Value)
	case OpNe:
		return !present || !Equal(v, c.Value)
	case OpIn:
		if !present {
			return false
		}
		for _, w := range c.Values {
			if Equal(v, w) {
				return true
			}
		}
		return false
	}
	if !present {
		return false
	}
	if !rangeMatches(c.Op, v, c.Value) {
		return false
	}
	if c.Op2 != 0 {
		return rangeMatches(c.Op2, v, c.Value2)
	}
	return true
}

// rangeMatches evaluates one ordering comparison; non-range ops and
// type-bracketed incomparable values fail.
func rangeMatches(op Op, v, bound any) bool {
	cmp, ok := Compare(v, bound)
	if !ok {
		return false
	}
	switch op {
	case OpGt:
		return cmp > 0
	case OpGte:
		return cmp >= 0
	case OpLt:
		return cmp < 0
	case OpLte:
		return cmp <= 0
	}
	return false
}

// Compare orders two scalar values. It returns ok=false when the types
// are not mutually comparable (e.g. string vs number): range conditions
// then fail, matching MongoDB's type-bracketed comparisons.
func Compare(a, b any) (int, bool) {
	switch x := a.(type) {
	case int64:
		switch y := b.(type) {
		case int64:
			return cmpOrdered(x, y), true
		case float64:
			return cmpOrdered(float64(x), y), true
		}
	case float64:
		switch y := b.(type) {
		case int64:
			return cmpOrdered(x, float64(y)), true
		case float64:
			return cmpOrdered(x, y), true
		}
	case string:
		if y, ok := b.(string); ok {
			return cmpOrdered(x, y), true
		}
	case bool:
		if y, ok := b.(bool); ok {
			switch {
			case x == y:
				return 0, true
			case !x:
				return -1, true
			default:
				return 1, true
			}
		}
	case nil:
		if b == nil {
			return 0, true
		}
	}
	return 0, false
}

func cmpOrdered[T int64 | float64 | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}
