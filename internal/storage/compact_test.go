package storage

import (
	"fmt"
	"testing"
)

// TestDeleteCompactsTombstones: a clear/refill churn loop (the context-
// concept pattern) must not accumulate dead rows or index garbage.
func TestDeleteCompactsTombstones(t *testing.T) {
	schema, err := NewSchema(Column{Name: "id", Type: TypeText})
	if err != nil {
		t.Fatal(err)
	}
	tab := NewTable("churn", schema)
	if err := tab.CreateIndex("id"); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 1000; round++ {
		for i := 0; i < 10; i++ {
			if err := tab.Insert(Row{Text(fmt.Sprintf("r%d", i))}); err != nil {
				t.Fatal(err)
			}
		}
		if got := tab.Len(); got != 10 {
			t.Fatalf("round %d: Len = %d, want 10", round, got)
		}
		rows, err := tab.Lookup("id", Text("r3"))
		if err != nil || len(rows) != 1 {
			t.Fatalf("round %d: lookup = %v, %v", round, rows, err)
		}
		if n := tab.Delete(func(Row) bool { return true }); n != 10 {
			t.Fatalf("round %d: deleted %d, want 10", round, n)
		}
	}
	tab.mu.RLock()
	heap, tombs := len(tab.rows), len(tab.deleted)
	tab.mu.RUnlock()
	if heap != 0 || tombs != 0 {
		t.Fatalf("heap holds %d rows and %d tombstones after churn, want 0/0", heap, tombs)
	}
}

// TestScanConcurrentWithDelete: Scan iterates lock-free over snapshot
// references, so Delete must never mutate the maps/slices a running scan
// holds (copy-on-write tombstones, freshly allocated compactions). Run
// with -race.
func TestScanConcurrentWithDelete(t *testing.T) {
	schema, err := NewSchema(Column{Name: "id", Type: TypeText})
	if err != nil {
		t.Fatal(err)
	}
	tab := NewTable("t", schema)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for round := 0; round < 300; round++ {
			for i := 0; i < 20; i++ {
				if err := tab.Insert(Row{Text(fmt.Sprintf("r%d", i))}); err != nil {
					t.Error(err)
					return
				}
			}
			tab.Delete(func(Row) bool { return true })
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
		}
		n := 0
		if err := tab.Scan(func(Row) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		if n > 20 {
			t.Fatalf("scan saw %d rows, more than ever live", n)
		}
	}
}

// TestPartialDeleteKeepsOrderAcrossCompaction: compaction renumbers rows
// but must preserve insertion order and index correctness.
func TestPartialDeleteKeepsOrderAcrossCompaction(t *testing.T) {
	schema, err := NewSchema(Column{Name: "n", Type: TypeInt})
	if err != nil {
		t.Fatal(err)
	}
	tab := NewTable("t", schema)
	if err := tab.CreateIndex("n"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := tab.Insert(Row{Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	// Delete the even rows: 50 tombstones vs 50 live triggers no compaction
	// (dead must exceed live); one more delete tips it over.
	if n := tab.Delete(func(r Row) bool { return r[0].I%2 == 0 }); n != 50 {
		t.Fatalf("deleted %d, want 50", n)
	}
	if n := tab.Delete(func(r Row) bool { return r[0].I == 1 }); n != 1 {
		t.Fatalf("deleted %d, want 1", n)
	}
	tab.mu.RLock()
	heap := len(tab.rows)
	tab.mu.RUnlock()
	if heap != 49 {
		t.Fatalf("heap = %d rows after compaction, want 49", heap)
	}
	var got []int64
	if err := tab.Scan(func(r Row) error {
		got = append(got, r[0].I)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if want := int64(2*i + 3); v != want {
			t.Fatalf("row %d = %d, want %d (order lost)", i, v, want)
		}
	}
	rows, err := tab.Lookup("n", Int(99))
	if err != nil || len(rows) != 1 {
		t.Fatalf("post-compaction lookup = %v, %v", rows, err)
	}
}

// keyedTable is a two-column table indexed on both columns, so a keyed
// delete has a second index to keep in step.
func keyedTable(t *testing.T) *Table {
	t.Helper()
	schema, err := NewSchema(Column{Name: "id", Type: TypeText}, Column{Name: "grp", Type: TypeInt})
	if err != nil {
		t.Fatal(err)
	}
	tab := NewTable("keyed", schema)
	for _, col := range []string{"id", "grp"} {
		if err := tab.CreateIndex(col); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// TestDeleteKeyChurnKeepsIndexesConsistent: interleaved inserts and keyed
// deletes of one key — the pattern of a user's row in a shared context
// concept — must leave every index agreeing with a heap scan, across
// compactions, and must never touch the other keys' rows.
func TestDeleteKeyChurnKeepsIndexesConsistent(t *testing.T) {
	tab := keyedTable(t)
	for i := 0; i < 8; i++ {
		if err := tab.Insert(Row{Text(fmt.Sprintf("other%d", i)), Int(int64(i % 2))}); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 500; round++ {
		// One or two rows under the churned key, in alternating groups.
		n := 1 + round%2
		for i := 0; i < n; i++ {
			if err := tab.Insert(Row{Text("hot"), Int(int64((round + i) % 2))}); err != nil {
				t.Fatal(err)
			}
		}
		if rows, err := tab.Lookup("id", Text("hot")); err != nil || len(rows) != n {
			t.Fatalf("round %d: lookup before delete = %d rows, %v; want %d", round, len(rows), err, n)
		}
		if n == 2 {
			// The residual form — a duplicate AssertRole's path — takes one of
			// the two out and leaves both indexes listing the other.
			grp := int64(round % 2)
			one, err := tab.DeleteKeyWhere("id", Text("hot"), func(r Row) bool { return r[1].I == grp })
			if err != nil || one != 1 {
				t.Fatalf("round %d: DeleteKeyWhere = %d, %v; want 1", round, one, err)
			}
			rest, err := tab.Lookup("id", Text("hot"))
			if err != nil || len(rest) != 1 || rest[0][1].I == grp {
				t.Fatalf("round %d: after DeleteKeyWhere the id index lists %v (%v)", round, rest, err)
			}
			sameGrp, _ := tab.Lookup("grp", Int(grp))
			for _, r := range sameGrp {
				if r[0].S == "hot" {
					t.Fatalf("round %d: the grp index still lists the deleted row", round)
				}
			}
			if none, _ := tab.DeleteKeyWhere("id", Text("hot"), func(r Row) bool { return false }); none != 0 {
				t.Fatalf("round %d: a residual that rejects every row removed %d", round, none)
			}
			n = 1
		}
		got, err := tab.DeleteKey("id", Text("hot"))
		if err != nil || got != n {
			t.Fatalf("round %d: DeleteKey = %d, %v; want %d", round, got, err, n)
		}
		if again, _ := tab.DeleteKey("id", Text("hot")); again != 0 {
			t.Fatalf("round %d: second DeleteKey removed %d rows", round, again)
		}
		if tab.Len() != 8 {
			t.Fatalf("round %d: Len = %d, want 8", round, tab.Len())
		}
		// Both indexes against the heap.
		byGroup := map[int64]int{}
		if err := tab.Scan(func(r Row) error {
			if r[0].S == "hot" {
				t.Fatalf("round %d: scan still sees a deleted row", round)
			}
			byGroup[r[1].I]++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for g, want := range byGroup {
			if rows, err := tab.Lookup("grp", Int(g)); err != nil || len(rows) != want {
				t.Fatalf("round %d: grp index holds %d rows for %d, heap %d (%v)", round, len(rows), g, want, err)
			}
		}
		if rows, _ := tab.Lookup("id", Text("other3")); len(rows) != 1 {
			t.Fatalf("round %d: bystander row lost", round)
		}
	}
	// The tombstone bound: dead rows never outnumber live ones.
	tab.mu.RLock()
	heap := len(tab.rows)
	tab.mu.RUnlock()
	if heap > 2*8+2 {
		t.Fatalf("heap holds %d rows for 8 live ones: keyed deletes are not compacted", heap)
	}
	// Without an index the keyed delete is a scan with the same result.
	plain := NewTable("plain", tab.Schema())
	for i := 0; i < 3; i++ {
		if err := plain.Insert(Row{Text("k"), Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := plain.DeleteKey("id", Text("k")); err != nil || n != 3 || plain.Len() != 0 {
		t.Fatalf("unindexed DeleteKey = %d, %v, Len %d", n, err, plain.Len())
	}
	if _, err := plain.DeleteKey("nope", Text("k")); err == nil {
		t.Fatal("DeleteKey on an unknown column accepted")
	}
}

// TestDeleteKeyChurnConcurrentWithScan: DeleteKey sets tombstones in place
// while lock-free Scans and index Lookups run; nothing may race (run with
// -race) and a scan may never see more rows than were ever live at once.
func TestDeleteKeyChurnConcurrentWithScan(t *testing.T) {
	tab := keyedTable(t)
	const keys = 20
	done := make(chan struct{})
	go func() {
		defer close(done)
		for round := 0; round < 300; round++ {
			for i := 0; i < keys; i++ {
				if err := tab.Insert(Row{Text(fmt.Sprintf("r%d", i)), Int(int64(i % 3))}); err != nil {
					t.Error(err)
					return
				}
			}
			for i := 0; i < keys; i++ {
				if n, err := tab.DeleteKey("id", Text(fmt.Sprintf("r%d", i))); err != nil || n != 1 {
					t.Errorf("round %d: DeleteKey(r%d) = %d, %v", round, i, n, err)
					return
				}
			}
		}
	}()
	for {
		select {
		case <-done:
			if tab.Len() != 0 {
				t.Fatalf("Len = %d after deleting every key", tab.Len())
			}
			return
		default:
		}
		n := 0
		if err := tab.Scan(func(Row) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		if n > keys {
			t.Fatalf("scan saw %d rows, more than ever live", n)
		}
		if rows, err := tab.Lookup("grp", Int(1)); err != nil || len(rows) > keys {
			t.Fatalf("lookup = %d rows, %v", len(rows), err)
		}
	}
}
