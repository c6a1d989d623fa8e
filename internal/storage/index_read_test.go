package storage

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestScanKeysMatchesFilteredScan: after any seeded mix of inserts, updates,
// deletes, keyed deletes (plain and with a residual) and the compactions
// they trigger, the index read returns exactly the rows a scan filtered with
// Equal returns, in the same order — for every indexed column, for single
// values and sets, for probes of the other numeric type, of a foreign type,
// NULL, negative zero and NaN.
func TestScanKeysMatchesFilteredScan(t *testing.T) {
	schema, err := NewSchema(
		Column{Name: "id", Type: TypeText},
		Column{Name: "n", Type: TypeInt},
		Column{Name: "f", Type: TypeFloat},
		Column{Name: "plain", Type: TypeInt},
	)
	if err != nil {
		t.Fatal(err)
	}
	indexed := []string{"id", "n", "f"}
	probes := []Value{
		Text("a"), Text("b"), Text("c"), Text("zz"), Null(),
		Int(0), Int(1), Int(2), Int(1 << 53), Int(1<<53 + 1),
		Float(0), Float(math.Copysign(0, -1)), Float(1), Float(1.5), Float(2), Float(1 << 53), Float(math.NaN()),
		Bool(true),
	}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := NewTable("t", schema)
		for _, c := range indexed {
			if err := tab.CreateIndex(c); err != nil {
				t.Fatal(err)
			}
		}
		value := func(typ Type) Value {
			for {
				if v := probes[rng.Intn(len(probes))]; v.T == typ || v.T == TypeNull || (v.T == TypeInt && typ == TypeFloat) {
					return v
				}
			}
		}
		row := func() Row { return Row{value(TypeText), value(TypeInt), value(TypeFloat), value(TypeInt)} }
		for step := 0; step < 120; step++ {
			col := rng.Intn(schema.Arity())
			name := schema.Columns[col].Name
			v := value(schema.Columns[col].Type)
			switch rng.Intn(7) {
			case 0, 1, 2:
				if err := tab.Insert(row()); err != nil {
					t.Fatal(err)
				}
			case 3:
				w := value(schema.Columns[col].Type)
				if _, err := tab.Update(
					func(r Row) (bool, error) { return Equal(r[col], v), nil },
					func(r Row) (Row, error) { r[col] = w; return r, nil },
				); err != nil {
					t.Fatal(err)
				}
			case 4:
				if _, err := tab.Delete(func(r Row) (bool, error) { return Equal(r[col], v), nil }); err != nil {
					t.Fatal(err)
				}
			case 5:
				if _, err := tab.DeleteKey(name, v); err != nil {
					t.Fatal(err)
				}
			case 6:
				keep := value(TypeInt)
				if _, err := tab.DeleteKeyWhere(name, v, func(r Row) bool { return !Equal(r[3], keep) }); err != nil {
					t.Fatal(err)
				}
			}

			for _, c := range indexed {
				ci := schema.ColumnIndex(c)
				sets := [][]Value{{probes[rng.Intn(len(probes))]}, {}}
				for n := 2 + rng.Intn(3); n > 0; n-- {
					sets[1] = append(sets[1], probes[rng.Intn(len(probes))])
				}
				for _, vals := range sets {
					var want, got []string
					_ = tab.Scan(func(r Row) error {
						for _, v := range vals {
							if Equal(r[ci], v) {
								want = append(want, fmt.Sprint(r))
								break
							}
						}
						return nil
					})
					ok, err := tab.ScanKeys(c, vals, func(r Row) error {
						got = append(got, fmt.Sprint(r))
						return nil
					})
					if err != nil || !ok {
						t.Fatalf("seed %d step %d: ScanKeys(%s) = %v, %v on an indexed column", seed, step, c, ok, err)
					}
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("seed %d step %d: ScanKeys(%s, %v)\n got %v\nwant %v", seed, step, c, vals, got, want)
					}
				}
			}
		}
	}
	tab := NewTable("t", schema)
	if ok, err := tab.ScanKeys("plain", []Value{Int(1)}, func(Row) error { t.Fatal("visited"); return nil }); ok || err != nil {
		t.Fatalf("ScanKeys on an unindexed column = %v, %v; want false, nil", ok, err)
	}
	if _, err := tab.ScanKeys("nope", nil, nil); err == nil {
		t.Fatal("ScanKeys on an unknown column accepted")
	}
}

// An INT probe finds a FLOAT column's 1.0 whether or not the column is
// indexed: index keys are typed, = is numeric, so the probe is coerced to the
// column's type where it meets the index.
func TestProbeCoercedToColumnType(t *testing.T) {
	for _, withIndex := range []bool{false, true} {
		schema, _ := NewSchema(Column{Name: "f", Type: TypeFloat}, Column{Name: "n", Type: TypeInt})
		tab := NewTable("t", schema)
		if withIndex {
			for _, c := range []string{"f", "n"} {
				if err := tab.CreateIndex(c); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < 3; i++ {
			if err := tab.Insert(Row{Float(float64(i)), Int(int64(i))}); err != nil {
				t.Fatal(err)
			}
		}
		if rows, err := tab.Lookup("f", Int(1)); err != nil || len(rows) != 1 {
			t.Errorf("index %v: Lookup(f, INT 1) = %d rows, %v; want the 1.0 row", withIndex, len(rows), err)
		}
		if rows, err := tab.Lookup("n", Float(2)); err != nil || len(rows) != 1 {
			t.Errorf("index %v: Lookup(n, FLOAT 2.0) = %d rows, %v; want the 2 row", withIndex, len(rows), err)
		}
		if rows, _ := tab.Lookup("n", Float(1.5)); len(rows) != 0 {
			t.Errorf("index %v: Lookup(n, 1.5) = %d rows", withIndex, len(rows))
		}
		if rows, _ := tab.Lookup("n", Text("1")); len(rows) != 0 {
			t.Errorf("index %v: Lookup(n, TEXT '1') = %d rows", withIndex, len(rows))
		}
		if n, err := tab.DeleteKey("f", Int(1)); err != nil || n != 1 {
			t.Errorf("index %v: DeleteKey(f, INT 1) = %d, %v; want 1", withIndex, n, err)
		}
		if n, err := tab.DeleteKey("n", Float(2)); err != nil || n != 1 {
			t.Errorf("index %v: DeleteKey(n, FLOAT 2.0) = %d, %v; want 1", withIndex, n, err)
		}
		if tab.Len() != 1 {
			t.Errorf("index %v: %d rows left, want 1", withIndex, tab.Len())
		}
	}
}

// Keys agree with Compare where the bit patterns do not: negative zero is
// zero, every NaN is one value (and no longer equal to every number).
func TestKeyAgreesWithCompareOnOddFloats(t *testing.T) {
	negZero := Float(math.Copysign(0, -1))
	if !Equal(negZero, Float(0)) || negZero.Key() != Float(0).Key() {
		t.Error("-0.0 and 0.0 must be equal and share a key")
	}
	nan := Float(math.NaN())
	if !Equal(nan, nan) || nan.Key() != Float(math.Float64frombits(0x7ff8000000000123)).Key() {
		t.Error("NaN must equal itself and every NaN share a key")
	}
	if Equal(nan, Float(1)) || Equal(Int(1), nan) {
		t.Error("NaN must not equal a number")
	}
	if c, _ := Compare(nan, Float(math.Inf(-1))); c >= 0 {
		t.Error("NaN must sort below every number")
	}
	if Int(1).Key() == Float(1).Key() || Int(1).NumericKey() != Float(1).NumericKey() {
		t.Error("Key is typed, NumericKey folds INT into FLOAT")
	}
}
