package event

import (
	"fmt"
	"testing"
)

func TestRetireIndependent(t *testing.T) {
	s := NewSpace()
	if err := s.Declare("a", 0.3); err != nil {
		t.Fatal(err)
	}
	if p := s.MustProb(Basic("a")); !almostEqual(p, 0.3) {
		t.Fatalf("P(a) = %g", p)
	}
	if err := s.Retire("a"); err != nil {
		t.Fatal(err)
	}
	if s.Declared("a") {
		t.Fatal("a still declared after retire")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d, want 0", s.Len())
	}
	if _, err := s.Prob(Basic("a")); err == nil {
		t.Fatal("retired event still has a probability")
	}
	// The name is free again — redeclaring with a different probability
	// must take effect (no stale probability may survive the retire).
	if err := s.Declare("a", 0.6); err != nil {
		t.Fatalf("redeclare after retire: %v", err)
	}
	if p := s.MustProb(Not(Basic("a"))); !almostEqual(p, 0.4) {
		t.Fatalf("P(¬a) after redeclare = %g, want 0.4", p)
	}
}

func TestRetireIsAtomic(t *testing.T) {
	s := NewSpace()
	s.Declare("a", 0.5)
	if err := s.Retire("a", "ghost"); err == nil {
		t.Fatal("retire of undeclared name accepted")
	}
	if !s.Declared("a") {
		t.Fatal("failed retire removed a declared event")
	}
	// Retiring nothing is a no-op.
	if err := s.Retire(); err != nil {
		t.Fatal(err)
	}
	// Duplicate names within one call retire once.
	if err := s.Retire("a", "a"); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d, want 0", s.Len())
	}
}

func TestRetireGroupMemberKeepsSiblingProbabilities(t *testing.T) {
	s := NewSpace()
	if err := s.DeclareExclusive([]string{"k", "o", "h"}, []float64{0.5, 0.3, 0.1}); err != nil {
		t.Fatal(err)
	}
	before := s.MustProb(Or(Basic("k"), Basic("o")))
	if err := s.Retire("h"); err != nil {
		t.Fatal(err)
	}
	// Residual mass is computed from mentioned members only, so retiring a
	// sibling changes nothing for expressions over the survivors.
	if after := s.MustProb(Or(Basic("k"), Basic("o"))); !almostEqual(after, before) {
		t.Fatalf("P(k∨o) changed across sibling retire: %g -> %g", before, after)
	}
	if p := s.MustProb(And(Basic("k"), Basic("o"))); p != 0 {
		t.Fatalf("exclusivity lost after sibling retire: %g", p)
	}
	if _, err := s.Prob(Basic("h")); err == nil {
		t.Fatal("retired member still has a probability")
	}
	if s.Groups() != 1 {
		t.Fatalf("Groups = %d, want 1", s.Groups())
	}
}

func TestRetireCompactsGroupSlots(t *testing.T) {
	s := NewSpace()
	if err := s.DeclareExclusive([]string{"x1", "x2"}, []float64{0.4, 0.4}); err != nil {
		t.Fatal(err)
	}
	if err := s.Retire("x1", "x2"); err != nil {
		t.Fatal(err)
	}
	if s.Groups() != 0 || s.Len() != 0 {
		t.Fatalf("Groups = %d, Len = %d after full retire", s.Groups(), s.Len())
	}
	// The freed slot is reused: the internal group table must not grow.
	for i := 0; i < 100; i++ {
		names := []string{fmt.Sprintf("y%d_a", i), fmt.Sprintf("y%d_b", i)}
		if err := s.DeclareExclusive(names, []float64{0.3, 0.3}); err != nil {
			t.Fatal(err)
		}
		if err := s.Retire(names...); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.RLock()
	slots := len(s.groups)
	s.mu.RUnlock()
	if slots > 1 {
		t.Fatalf("group table grew to %d slots under churn, want 1", slots)
	}
}

func TestDeclareExclusiveRejectsDuplicateNames(t *testing.T) {
	s := NewSpace()
	if err := s.DeclareExclusive([]string{"p", "p"}, []float64{0.3, 0.3}); err == nil {
		t.Fatal("duplicate member names accepted")
	}
	// Rejection must leave the space untouched.
	if s.Len() != 0 || s.Groups() != 0 {
		t.Fatalf("failed declare left Len = %d, Groups = %d", s.Len(), s.Groups())
	}
	if err := s.DeclareExclusive([]string{"p", "q"}, []float64{0.3, 0.3}); err != nil {
		t.Fatalf("valid group rejected after duplicate attempt: %v", err)
	}
}

// TestProbConcurrentWithRetire hammers Prob from many goroutines while one
// goroutine retires and redeclares the same names with changing
// probabilities: no probability from before a retire may survive it, so
// afterwards Prob must agree with the final declarations.
func TestProbConcurrentWithRetire(t *testing.T) {
	s := NewSpace()
	s.Declare("stable", 0.5)
	s.Declare("hot", 0.1)
	e := And(Basic("stable"), Basic("hot"))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			if err := s.Retire("hot"); err != nil {
				t.Error(err)
				return
			}
			if err := s.Declare("hot", float64(i%9+1)/10); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 16; i++ {
		go func() {
			for {
				select {
				case <-done:
					return
				default:
				}
				// Both outcomes are legal mid-churn: a probability, or a
				// "not declared" error while hot is momentarily retired.
				_, _ = s.Prob(e)
			}
		}()
	}
	<-done
	want, err := s.BasicProb("hot")
	if err != nil {
		t.Fatal(err)
	}
	// Prob must now reflect the final declaration, not any value from before
	// a retire.
	for i := 0; i < 3; i++ {
		p, err := s.Prob(e)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(p, 0.5*want) {
			t.Fatalf("P(stable∧hot) = %g, want %g (a stale value survived a retire)", p, 0.5*want)
		}
	}
}

// TestSpaceChurnSoak is the substrate half of the ISSUE 2 acceptance: 10k
// declare/rank/retire epochs must leave the space no larger than one
// epoch's vocabulary, with probabilities identical every round.
func TestSpaceChurnSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("churn soak skipped in -short mode")
	}
	s := NewSpace()
	var prev []string
	const epochs = 10000
	for e := 0; e < epochs; e++ {
		ind := fmt.Sprintf("ctx_%d_ind", e)
		ga := fmt.Sprintf("ctx_%d_a", e)
		gb := fmt.Sprintf("ctx_%d_b", e)
		gc := fmt.Sprintf("ctx_%d_c", e)
		if err := s.Declare(ind, 0.9); err != nil {
			t.Fatal(err)
		}
		if err := s.DeclareExclusive([]string{ga, gb, gc}, []float64{0.6, 0.3, 0.1}); err != nil {
			t.Fatal(err)
		}
		p := s.MustProb(And(Basic(ind), Or(Basic(ga), Basic(gb))))
		if !almostEqual(p, 0.9*0.9) {
			t.Fatalf("epoch %d: P = %g, want 0.81", e, p)
		}
		if err := s.Retire(prev...); err != nil {
			t.Fatal(err)
		}
		prev = []string{ind, ga, gb, gc}
	}
	// Live vocabulary: exactly the final epoch's four events (the previous
	// epoch was retired inside the loop).
	if s.Len() != len(prev) {
		t.Fatalf("space grew: Len = %d after %d epochs, want %d", s.Len(), epochs, len(prev))
	}
	if s.Groups() != 1 {
		t.Fatalf("groups grew: %d live groups, want 1", s.Groups())
	}
	// Two slots max: the current epoch's group plus the not-yet-retired
	// previous one coexist briefly each round, then the slot is reused.
	s.mu.RLock()
	slots := len(s.groups)
	s.mu.RUnlock()
	if slots > 2 {
		t.Fatalf("group slot table grew to %d entries under churn", slots)
	}
}

// TestChangedBlocksSince pins the change record the stamped readers (the
// shared document sides, the membership block footprints) validate by: every
// key recorded in (g, asOf] is returned, asOf never decreases, and a history
// trimmed past g answers ok=false.
func TestChangedBlocksSince(t *testing.T) {
	s := NewSpace()
	s.Declare("a", 0.5)
	s.Declare("b", 0.5)
	g0 := s.Generation()
	if err := s.DeclareExclusive([]string{"x", "y"}, []float64{0.3, 0.3}); err != nil {
		t.Fatal(err)
	}
	if err := s.Retire("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Declare("c", 0.2); err != nil { // a fresh independent basic changes nothing
		t.Fatal(err)
	}
	if g := s.Generation(); g != g0+2 {
		t.Fatalf("Generation = %d, want %d", g, g0+2)
	}
	var lastAsOf uint64
	check := func(since uint64, want ...string) {
		t.Helper()
		keys, asOf, ok := s.ChangedBlocksSince(since)
		if !ok {
			t.Fatalf("since %d: history no longer reaches back", since)
		}
		if asOf < lastAsOf || asOf != s.Generation() {
			t.Fatalf("since %d: asOf = %d after %d, Generation %d", since, asOf, lastAsOf, s.Generation())
		}
		lastAsOf = asOf
		if len(keys) != len(want) {
			t.Fatalf("since %d: keys %v, want %v", since, keys, want)
		}
		for _, k := range want {
			if !keys[k] {
				t.Fatalf("since %d: keys %v, want %v", since, keys, want)
			}
		}
	}
	check(g0, groupKey(0), "b:a")
	check(g0+1, "b:a")
	check(g0 + 2)

	// Trim the history past g0: one change per retire, past the bound.
	for i := 0; i < maxTrackedChanges; i++ {
		if err := s.Retire("b"); err != nil {
			t.Fatal(err)
		}
		if err := s.Declare("b", 0.5); err != nil {
			t.Fatal(err)
		}
	}
	if _, asOf, ok := s.ChangedBlocksSince(g0); ok || asOf != s.Generation() {
		t.Fatalf("trimmed history: ok = %v, asOf = %d, want false at %d", ok, asOf, s.Generation())
	}
	check(s.Generation()-1, "b:b")
}

// TestChangedBlocksSinceConcurrent runs the change record's readers against
// Retire and DeclareExclusive, for the race detector: a reader that stamped
// a generation and sees a later asOf is told a key, only keys that were
// recorded, and asOf never goes back.
func TestChangedBlocksSinceConcurrent(t *testing.T) {
	s := NewSpace()
	s.Declare("hot", 0.5)
	recorded := map[string]bool{"b:hot": true, groupKey(0): true}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			if err := s.Retire("hot"); err != nil {
				t.Error(err)
				return
			}
			if err := s.Declare("hot", 0.5); err != nil {
				t.Error(err)
				return
			}
			if err := s.DeclareExclusive([]string{"k", "l"}, []float64{0.4, 0.4}); err != nil {
				t.Error(err)
				return
			}
			if err := s.Retire("k", "l"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	const readers = 4
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		go func() {
			var last uint64
			for {
				select {
				case <-done:
					errs <- nil
					return
				default:
				}
				g := s.Generation()
				keys, asOf, ok := s.ChangedBlocksSince(g)
				switch {
				case asOf < g || asOf < last:
					errs <- fmt.Errorf("asOf %d went back (stamp %d, last %d)", asOf, g, last)
					return
				case ok && asOf > g && len(keys) == 0:
					errs <- fmt.Errorf("(%d, %d] reported no change", g, asOf)
					return
				}
				for k := range keys {
					if !recorded[k] {
						errs <- fmt.Errorf("unrecorded key %q", k)
						return
					}
				}
				last = asOf
			}
		}()
	}
	for r := 0; r < readers; r++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	<-done
}
