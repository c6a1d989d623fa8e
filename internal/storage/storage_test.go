package storage

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/event"
)

func mustSchema(t *testing.T, cols ...Column) Schema {
	t.Helper()
	s, err := NewSchema(cols...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTypeFromName(t *testing.T) {
	cases := map[string]Type{
		"INT": TypeInt, "INTEGER": TypeInt, "BIGINT": TypeInt,
		"FLOAT": TypeFloat, "REAL": TypeFloat, "DOUBLE": TypeFloat,
		"TEXT": TypeText, "VARCHAR": TypeText,
		"BOOL": TypeBool, "BOOLEAN": TypeBool,
		"EVENT": TypeEvent,
	}
	for name, want := range cases {
		got, err := TypeFromName(name)
		if err != nil || got != want {
			t.Errorf("TypeFromName(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := TypeFromName("BLOB"); err == nil {
		t.Error("unknown type accepted")
	}
}

func TestValueBasics(t *testing.T) {
	if !Null().IsNull() {
		t.Fatal("zero Value is not NULL")
	}
	if Int(3).String() != "3" || Text("x").String() != "x" || Bool(true).String() != "TRUE" {
		t.Fatal("String rendering wrong")
	}
	if Event(nil).T != TypeNull {
		t.Fatal("Event(nil) should be NULL")
	}
	f, err := Int(4).AsFloat()
	if err != nil || f != 4 {
		t.Fatalf("Int.AsFloat = %v, %v", f, err)
	}
	if _, err := Text("x").AsFloat(); err == nil {
		t.Fatal("text coerced to float")
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Float(2.5), Int(2), 1},
		{Int(2), Float(2.0), 0},
		{Text("a"), Text("b"), -1},
		{Bool(false), Bool(true), -1},
		{Null(), Int(0), -1},
		{Int(0), Null(), 1},
		{Null(), Null(), 0},
	}
	for i, c := range cases {
		got, err := Compare(c.a, c.b)
		if err != nil || got != c.want {
			t.Errorf("case %d: Compare(%v,%v) = %d, %v; want %d", i, c.a, c.b, got, err, c.want)
		}
	}
	if _, err := Compare(Text("a"), Int(1)); err == nil {
		t.Error("cross-type comparison accepted")
	}
}

func TestValueKeyDistinguishesTypes(t *testing.T) {
	if Int(1).Key() == Text("1").Key() {
		t.Fatal("INT 1 and TEXT '1' share a key")
	}
	if Bool(true).Key() == Text("TRUE").Key() {
		t.Fatal("BOOL TRUE and TEXT 'TRUE' share a key")
	}
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema(Column{"a", TypeInt}, Column{"A", TypeText}); err == nil {
		t.Fatal("duplicate column (case-insensitive) accepted")
	}
	if _, err := NewSchema(Column{"", TypeInt}); err == nil {
		t.Fatal("empty column name accepted")
	}
	s := mustSchema(t, Column{"id", TypeText}, Column{"n", TypeInt})
	if s.ColumnIndex("ID") != 0 || s.ColumnIndex("n") != 1 || s.ColumnIndex("x") != -1 {
		t.Fatal("ColumnIndex lookup wrong")
	}
}

func TestInsertCoercionAndArity(t *testing.T) {
	tab := NewTable("t", mustSchema(t, Column{"id", TypeText}, Column{"score", TypeFloat}))
	if err := tab.Insert(Row{Text("a"), Int(3)}); err != nil {
		t.Fatal(err)
	}
	var got Row
	tab.Scan(func(r Row) error { got = r.Clone(); return nil })
	if got[1].T != TypeFloat || got[1].F != 3 {
		t.Fatalf("INT not coerced to FLOAT: %+v", got[1])
	}
	if err := tab.Insert(Row{Text("a")}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if err := tab.Insert(Row{Int(1), Float(1)}); err == nil {
		t.Fatal("INT into TEXT accepted")
	}
	if err := tab.Insert(Row{Null(), Null()}); err != nil {
		t.Fatalf("NULLs rejected: %v", err)
	}
}

func TestLookupWithAndWithoutIndex(t *testing.T) {
	tab := NewTable("t", mustSchema(t, Column{"id", TypeText}, Column{"n", TypeInt}))
	for i := 0; i < 10; i++ {
		tab.Insert(Row{Text(fmt.Sprintf("k%d", i%3)), Int(int64(i))})
	}
	scanRows, err := tab.Lookup("id", Text("k1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.CreateIndex("id"); err != nil {
		t.Fatal(err)
	}
	if !tab.HasIndex("id") {
		t.Fatal("index not reported")
	}
	idxRows, err := tab.Lookup("id", Text("k1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(scanRows) != len(idxRows) || len(idxRows) != 3 {
		t.Fatalf("scan found %d, index found %d, want 3", len(scanRows), len(idxRows))
	}
	if _, err := tab.Lookup("nope", Int(0)); err == nil {
		t.Fatal("lookup on missing column accepted")
	}
}

func TestIndexMaintainedAcrossInsertAndDelete(t *testing.T) {
	tab := NewTable("t", mustSchema(t, Column{"id", TypeText}))
	tab.CreateIndex("id")
	tab.Insert(Row{Text("a")})
	tab.Insert(Row{Text("a")})
	tab.Insert(Row{Text("b")})
	if rows, _ := tab.Lookup("id", Text("a")); len(rows) != 2 {
		t.Fatalf("found %d rows, want 2", len(rows))
	}
	n, err := tab.Delete(func(r Row) (bool, error) { return r[0].S == "a", nil })
	if err != nil || n != 2 {
		t.Fatalf("deleted %d, want 2", n)
	}
	if rows, _ := tab.Lookup("id", Text("a")); len(rows) != 0 {
		t.Fatalf("found %d rows after delete, want 0", len(rows))
	}
	if tab.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tab.Len())
	}
}

func TestEventColumn(t *testing.T) {
	tab := NewTable("c", mustSchema(t, Column{"id", TypeText}, Column{"ev", TypeEvent}))
	e := event.And(event.Basic("x"), event.Basic("y"))
	if err := tab.Insert(Row{Text("doc1"), Event(e)}); err != nil {
		t.Fatal(err)
	}
	rows, _ := tab.Lookup("id", Text("doc1"))
	if len(rows) != 1 || rows[0][1].Ev != e {
		t.Fatal("event expression not stored by reference")
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	s := mustSchema(t, Column{"id", TypeText})
	if _, err := c.Create("T1", s); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create("t1", s); err == nil {
		t.Fatal("case-insensitive duplicate accepted")
	}
	if !c.Exists("t1") {
		t.Fatal("Exists(t1) = false")
	}
	if _, err := c.Get("T1"); err != nil {
		t.Fatal(err)
	}
	c.Create("a", s)
	names := c.Names()
	if len(names) != 2 || names[0] != "T1" && names[0] != "a" {
		t.Fatalf("Names = %v", names)
	}
	if err := c.Drop("t1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Drop("t1"); err == nil {
		t.Fatal("double drop accepted")
	}
}

func TestConcurrentInsertScan(t *testing.T) {
	tab := NewTable("t", mustSchema(t, Column{"n", TypeInt}))
	tab.CreateIndex("n")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tab.Insert(Row{Int(int64(g*100 + i))})
				tab.Scan(func(Row) error { return nil })
				tab.Lookup("n", Int(int64(i)))
			}
		}(g)
	}
	wg.Wait()
	if tab.Len() != 800 {
		t.Fatalf("Len = %d, want 800", tab.Len())
	}
}

func TestQuickCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		ca, _ := Compare(Int(a), Int(b))
		cb, _ := Compare(Int(b), Int(a))
		return ca == -cb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCoerceIntToFloatLossless(t *testing.T) {
	f := func(i int32) bool {
		v, err := Int(int64(i)).CoerceTo(TypeFloat)
		return err == nil && v.F == float64(i)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
