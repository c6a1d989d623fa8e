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
	// must take effect (no stale memo may survive the retire).
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

func TestRetireInvalidatesOnlyMentioningMemos(t *testing.T) {
	s := NewSpace()
	s.Declare("a", 0.5)
	s.Declare("b", 0.4)
	s.Declare("c", 0.3)
	s.Declare("d", 0.2)
	touching := Or(Basic("a"), Basic("b"))
	disjoint := And(Basic("c"), Basic("d"))
	s.MustProb(touching)
	s.MustProb(disjoint)
	s.cacheMu.Lock()
	cached := len(s.cache)
	s.cacheMu.Unlock()
	if cached != 2 {
		t.Fatalf("cache holds %d entries, want 2", cached)
	}
	if err := s.Retire("a"); err != nil {
		t.Fatal(err)
	}
	s.cacheMu.Lock()
	_, touchingCached := s.cache[touching.String()]
	_, disjointCached := s.cache[disjoint.String()]
	s.cacheMu.Unlock()
	if touchingCached {
		t.Fatal("memo mentioning the retired event survived")
	}
	if !disjointCached {
		t.Fatal("memo over disjoint events was invalidated")
	}
	if p := s.MustProb(disjoint); !almostEqual(p, 0.06) {
		t.Fatalf("P(c∧d) = %g, want 0.06", p)
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

func TestFreshIndependentDeclareKeepsMemos(t *testing.T) {
	s := NewSpace()
	s.Declare("a", 0.5)
	s.Declare("b", 0.4)
	e := And(Basic("a"), Basic("b"))
	s.MustProb(e)
	s.Declare("fresh", 0.9)
	s.cacheMu.Lock()
	_, stillCached := s.cache[e.String()]
	s.cacheMu.Unlock()
	if !stillCached {
		t.Fatal("fresh independent declare wiped an unrelated memo")
	}
	// And the cached value is still right.
	if p := s.MustProb(e); !almostEqual(p, 0.2) {
		t.Fatalf("P(a∧b) = %g, want 0.2", p)
	}
}

// TestProbConcurrentWithRetire hammers Prob from many goroutines while one
// goroutine retires and redeclares the same names with changing
// probabilities — the compute-then-store window in Prob must never memoize
// a value from before an intervening retire (gen guard), and afterwards the
// cache must agree with the final declarations.
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
	// The memo must now reflect the final declaration, not any stale value
	// cached across a retire.
	for i := 0; i < 3; i++ {
		p, err := s.Prob(e)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(p, 0.5*want) {
			t.Fatalf("P(stable∧hot) = %g, want %g (stale memo survived a retire)", p, 0.5*want)
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
	// Memos of retired expressions must be dropped too.
	s.cacheMu.Lock()
	memos := len(s.cache)
	s.cacheMu.Unlock()
	if memos > 4 {
		t.Fatalf("memo cache grew to %d entries", memos)
	}
}
