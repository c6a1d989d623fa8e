// Package storage implements the tuple store underneath the embedded
// relational engine: typed values (including the paper's EVENT expression
// datatype, §5), schemas, tables with hash indexes, and a catalog. It plays
// the role PostgreSQL's storage layer played for the paper's prototype.
package storage

import (
	"cmp"
	"fmt"
	"math"
	"strconv"

	"repro/internal/event"
)

// Type is the data type of a column or value.
type Type uint8

// Column types.
const (
	TypeNull Type = iota
	TypeInt
	TypeFloat
	TypeText
	TypeBool
	TypeEvent // probabilistic event expression (the paper's custom datatype)
)

// String returns the SQL-facing name of the type.
func (t Type) String() string {
	switch t {
	case TypeNull:
		return "NULL"
	case TypeInt:
		return "INT"
	case TypeFloat:
		return "FLOAT"
	case TypeText:
		return "TEXT"
	case TypeBool:
		return "BOOL"
	case TypeEvent:
		return "EVENT"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// TypeFromName resolves a SQL type name (case-sensitive, canonical upper
// case) to a Type.
func TypeFromName(name string) (Type, error) {
	switch name {
	case "INT", "INTEGER", "BIGINT":
		return TypeInt, nil
	case "FLOAT", "REAL", "DOUBLE":
		return TypeFloat, nil
	case "TEXT", "VARCHAR", "STRING":
		return TypeText, nil
	case "BOOL", "BOOLEAN":
		return TypeBool, nil
	case "EVENT":
		return TypeEvent, nil
	}
	return TypeNull, fmt.Errorf("storage: unknown type %q", name)
}

// Value is a dynamically typed SQL value. The zero value is NULL.
type Value struct {
	T  Type
	I  int64
	F  float64
	S  string
	B  bool
	Ev *event.Expr
}

// Constructors.

// Null returns the SQL NULL value.
func Null() Value { return Value{} }

// Int returns an INT value.
func Int(i int64) Value { return Value{T: TypeInt, I: i} }

// Float returns a FLOAT value.
func Float(f float64) Value { return Value{T: TypeFloat, F: f} }

// Text returns a TEXT value.
func Text(s string) Value { return Value{T: TypeText, S: s} }

// Bool returns a BOOL value.
func Bool(b bool) Value { return Value{T: TypeBool, B: b} }

// Event returns an EVENT value wrapping the given expression; a nil
// expression yields NULL.
func Event(e *event.Expr) Value {
	if e == nil {
		return Value{}
	}
	return Value{T: TypeEvent, Ev: e}
}

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.T == TypeNull }

// AsFloat converts numeric values to float64.
func (v Value) AsFloat() (float64, error) {
	switch v.T {
	case TypeInt:
		return float64(v.I), nil
	case TypeFloat:
		return v.F, nil
	}
	return 0, fmt.Errorf("storage: %s is not numeric", v.T)
}

// Truth reports the boolean value; NULL is false under SQL's WHERE
// semantics, with ok=false signalling "unknown".
func (v Value) Truth() (val, ok bool) {
	switch v.T {
	case TypeBool:
		return v.B, true
	case TypeNull:
		return false, false
	}
	return false, false
}

// String renders the value for display.
func (v Value) String() string {
	switch v.T {
	case TypeNull:
		return "NULL"
	case TypeInt:
		return strconv.FormatInt(v.I, 10)
	case TypeFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case TypeText:
		return v.S
	case TypeBool:
		if v.B {
			return "TRUE"
		}
		return "FALSE"
	case TypeEvent:
		return v.Ev.String()
	}
	return fmt.Sprintf("<invalid %d>", v.T)
}

// Key is a comparable stand-in for a value: two values have the same Key
// exactly when they have the same type and Compare calls them equal. It is
// what hash indexes, hash joins and GROUP BY key on; building one allocates
// nothing for NULL, INT, FLOAT, TEXT and BOOL.
type Key struct {
	T Type
	N uint64 // INT and FLOAT: the bits of the value as a float64; BOOL: 0 or 1
	S string // TEXT: the text; EVENT: the canonical expression
}

// Key returns the value's Key. Numbers key by the float64 Compare compares
// them as — so INTs past 2^53 that = cannot tell apart share a key — with
// negative zero as zero and every NaN as one NaN.
func (v Value) Key() Key {
	switch v.T {
	case TypeInt:
		return Key{T: TypeInt, N: floatBits(float64(v.I))}
	case TypeFloat:
		return Key{T: TypeFloat, N: floatBits(v.F)}
	case TypeText:
		return Key{T: TypeText, S: v.S}
	case TypeBool:
		if v.B {
			return Key{T: TypeBool, N: 1}
		}
		return Key{T: TypeBool}
	case TypeEvent:
		return Key{T: TypeEvent, S: v.Ev.String()}
	}
	return Key{T: v.T}
}

// NumericKey is Key with INT and FLOAT folded into one type: two numbers have
// the same NumericKey exactly when = holds between them. Hash joins bucket by
// it, so an INT column meets the FLOAT column it is joined to.
func (v Value) NumericKey() Key {
	k := v.Key()
	if k.T == TypeInt {
		k.T = TypeFloat
	}
	return k
}

func floatBits(f float64) uint64 {
	switch {
	case f == 0:
		f = 0 // negative zero
	case f != f:
		f = math.NaN()
	}
	return math.Float64bits(f)
}

// AppendTo appends a self-delimiting encoding of the key to b, for callers
// that key on several values at once.
func (k Key) AppendTo(b []byte) []byte {
	b = append(b, byte(k.T))
	switch k.T {
	case TypeText, TypeEvent:
		b = strconv.AppendInt(b, int64(len(k.S)), 10)
		b = append(b, ':')
		b = append(b, k.S...)
	default:
		b = strconv.AppendUint(b, k.N, 16)
		b = append(b, ';')
	}
	return b
}

// Compare orders two values: NULL sorts first; numbers compare numerically
// across INT/FLOAT as float64s (NaN below every number and equal to itself,
// negative zero equal to zero); otherwise values must have the same type. EVENT values are ordered by their canonical string (deterministic,
// not semantically meaningful).
func Compare(a, b Value) (int, error) {
	if a.T == TypeNull || b.T == TypeNull {
		switch {
		case a.T == TypeNull && b.T == TypeNull:
			return 0, nil
		case a.T == TypeNull:
			return -1, nil
		default:
			return 1, nil
		}
	}
	if isNumeric(a.T) && isNumeric(b.T) {
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		return cmp.Compare(af, bf), nil
	}
	if a.T != b.T {
		return 0, fmt.Errorf("storage: cannot compare %s with %s", a.T, b.T)
	}
	switch a.T {
	case TypeText:
		switch {
		case a.S < b.S:
			return -1, nil
		case a.S > b.S:
			return 1, nil
		}
		return 0, nil
	case TypeBool:
		switch {
		case !a.B && b.B:
			return -1, nil
		case a.B && !b.B:
			return 1, nil
		}
		return 0, nil
	case TypeEvent:
		as, bs := a.Ev.String(), b.Ev.String()
		switch {
		case as < bs:
			return -1, nil
		case as > bs:
			return 1, nil
		}
		return 0, nil
	}
	return 0, fmt.Errorf("storage: cannot compare values of type %s", a.T)
}

func isNumeric(t Type) bool { return t == TypeInt || t == TypeFloat }

// probeKey turns "column = v" into the index key of a column of type t,
// whose stored values were coerced to t on the way in. ok=false means no
// stored value can equal v: Equal never holds across other types.
func probeKey(t Type, v Value) (key Key, ok bool) {
	key = v.Key()
	if isNumeric(t) && isNumeric(v.T) {
		key.T = t
	}
	return key, key.T == t || v.T == TypeNull
}

// Equal reports value equality under Compare semantics (NULL equals NULL
// here; SQL three-valued logic is applied by the expression evaluator, not
// by storage).
func Equal(a, b Value) bool {
	c, err := Compare(a, b)
	return err == nil && c == 0
}

// CoerceTo converts v to column type t where the conversion is lossless
// (INT→FLOAT, NULL→anything); it rejects anything else.
func (v Value) CoerceTo(t Type) (Value, error) {
	if v.T == t || v.T == TypeNull {
		return v, nil
	}
	if v.T == TypeInt && t == TypeFloat {
		return Float(float64(v.I)), nil
	}
	return Value{}, fmt.Errorf("storage: cannot store %s into %s column", v.T, t)
}
