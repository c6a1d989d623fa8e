package storage

import (
	"fmt"
	"testing"
)

// versionTable is a two-column table with n rows k0..k(n-1) and an index on
// the key, which is what DeleteKey's keyed path needs.
func versionTable(t *testing.T, n int) *Table {
	t.Helper()
	schema, err := NewSchema(Column{Name: "k", Type: TypeText}, Column{Name: "v", Type: TypeInt})
	if err != nil {
		t.Fatal(err)
	}
	tab := NewTable("t", schema)
	if err := tab.CreateIndex("k"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := tab.Insert(Row{Text(fmt.Sprintf("k%d", i)), Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// TestVersionAdvancesWithEveryRowChange: every mutator that changes rows
// advances the version by one, and one that changes nothing — a delete or an
// update that matches no row, a failed insert, an index build — leaves it
// alone, so an unchanged version proves unchanged rows.
func TestVersionAdvancesWithEveryRowChange(t *testing.T) {
	tab := versionTable(t, 0)
	if v := tab.Version(); v != 0 {
		t.Fatalf("fresh table at version %d, want 0", v)
	}
	step := func(name string, advance bool, mutate func()) {
		t.Helper()
		before := tab.Version()
		mutate()
		want := before
		if advance {
			want++
		}
		if got := tab.Version(); got != want {
			t.Fatalf("%s: version %d -> %d, want %d", name, before, got, want)
		}
	}
	for i := 0; i < 6; i++ {
		step("insert", true, func() {
			if err := tab.Insert(Row{Text(fmt.Sprintf("k%d", i)), Int(int64(i))}); err != nil {
				t.Fatal(err)
			}
		})
	}
	step("insert with the wrong arity", false, func() {
		if err := tab.Insert(Row{Text("short")}); err == nil {
			t.Fatal("short row accepted")
		}
	})
	step("index build", false, func() {
		if err := tab.CreateIndex("v"); err != nil {
			t.Fatal(err)
		}
	})
	step("update", true, func() {
		n, err := tab.Update(
			func(r Row) bool { return r[0].S == "k1" },
			func(r Row) (Row, error) { r[1] = Int(100); return r, nil })
		if err != nil || n != 1 {
			t.Fatalf("update = %d, %v", n, err)
		}
	})
	step("update matching nothing", false, func() {
		n, err := tab.Update(
			func(r Row) bool { return r[0].S == "absent" },
			func(r Row) (Row, error) { return r, nil })
		if err != nil || n != 0 {
			t.Fatalf("update = %d, %v", n, err)
		}
	})
	step("delete", true, func() {
		if n := tab.Delete(func(r Row) bool { return r[0].S == "k0" }); n != 1 {
			t.Fatalf("deleted %d rows, want 1", n)
		}
	})
	step("delete matching nothing", false, func() {
		if n := tab.Delete(func(r Row) bool { return r[0].S == "k0" }); n != 0 {
			t.Fatalf("deleted %d rows, want 0", n)
		}
	})
	step("keyed delete", true, func() {
		if n, err := tab.DeleteKey("k", Text("k2")); err != nil || n != 1 {
			t.Fatalf("DeleteKey = %d, %v", n, err)
		}
	})
	step("keyed delete of an absent key", false, func() {
		if n, err := tab.DeleteKey("k", Text("k2")); err != nil || n != 0 {
			t.Fatalf("DeleteKey = %d, %v", n, err)
		}
	})
	step("unindexed keyed delete", true, func() {
		if n, err := tab.DeleteKey("v", Int(3)); err != nil || n != 1 {
			t.Fatalf("DeleteKey = %d, %v", n, err)
		}
	})
}

// TestVersionAcrossCompaction: a delete that tips the heap into compaction
// (tombstones outnumber live rows, fresh slices, renumbered ids) advances the
// version by exactly one, like a delete that does not — compaction changes
// the layout, never the rows — and a Scan that started before it keeps
// iterating its own consistent snapshot.
func TestVersionAcrossCompaction(t *testing.T) {
	for _, keyed := range []bool{false, true} {
		tab := versionTable(t, 10)
		del := func(i int) {
			t.Helper()
			key := fmt.Sprintf("k%d", i)
			before := tab.Version()
			if keyed {
				if n, err := tab.DeleteKey("k", Text(key)); err != nil || n != 1 {
					t.Fatalf("DeleteKey(%s) = %d, %v", key, n, err)
				}
			} else if n := tab.Delete(func(r Row) bool { return r[0].S == key }); n != 1 {
				t.Fatalf("Delete(%s) removed %d rows", key, n)
			}
			if got := tab.Version(); got != before+1 {
				t.Fatalf("keyed=%v: delete of %s moved the version %d -> %d, want +1", keyed, key, before, got)
			}
		}
		heapLen := func() int {
			tab.mu.RLock()
			defer tab.mu.RUnlock()
			return len(tab.rows)
		}
		for i := 0; i < 5; i++ {
			del(i) // 5 dead, 5 live: not yet compacted
		}
		if heapLen() != 10 {
			t.Fatalf("keyed=%v: heap compacted early (%d rows)", keyed, heapLen())
		}
		// A scan in flight across the compacting delete sees its snapshot: the
		// five rows live when it started, whatever happens to the heap.
		seen := 0
		err := tab.Scan(func(Row) error {
			if seen == 0 {
				del(5) // 6 dead > 4 live: this one compacts
				if heapLen() != 4 {
					t.Fatalf("keyed=%v: heap holds %d rows after the compacting delete, want 4", keyed, heapLen())
				}
			}
			seen++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if seen < 4 || seen > 5 {
			t.Fatalf("keyed=%v: scan across a compaction saw %d rows, want the 4 survivors (and possibly the row deleted under it)", keyed, seen)
		}
		if rows, err := tab.Lookup("k", Text("k7")); err != nil || len(rows) != 1 {
			t.Fatalf("keyed=%v: lookup after compaction = %v, %v", keyed, rows, err)
		}
	}
}

// TestDropAdvancesVersion: a (table, version) pair remembered before a DROP
// never validates again, and the recreated table is another identity.
func TestDropAdvancesVersion(t *testing.T) {
	c := NewCatalog()
	schema, err := NewSchema(Column{Name: "k", Type: TypeText})
	if err != nil {
		t.Fatal(err)
	}
	old, err := c.Create("t", schema)
	if err != nil {
		t.Fatal(err)
	}
	seen := old.Version()
	if err := c.Drop("t"); err != nil {
		t.Fatal(err)
	}
	if old.Version() == seen {
		t.Fatal("a dropped table still validates the version read before the drop")
	}
	recreated, err := c.Create("t", schema)
	if err != nil {
		t.Fatal(err)
	}
	if recreated == old {
		t.Fatal("recreated table shares its predecessor's identity")
	}
}
