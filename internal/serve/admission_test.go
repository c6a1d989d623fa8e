package serve

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestTokenBucketRefill pins the per-user budget arithmetic: burst spent,
// refused at zero, refilled by the advancing clock at exactly PerUserRate
// tokens per second, capped at burst.
func TestTokenBucketRefill(t *testing.T) {
	a := NewAdmission(AdmissionOptions{PerUserRate: 10, PerUserBurst: 3})
	now := time.Unix(1000, 0)
	a.now = func() time.Time { return now }

	for i := 0; i < 3; i++ {
		if ok, _ := a.AllowUser("u"); !ok {
			t.Fatalf("request %d refused inside burst", i)
		}
	}
	ok, retry := a.AllowUser("u")
	if ok {
		t.Fatal("4th request admitted with an empty bucket")
	}
	// Empty bucket at 10 req/s: a whole token is 100ms away.
	if retry <= 0 || retry > 100*time.Millisecond {
		t.Fatalf("retryAfter = %v, want (0, 100ms]", retry)
	}

	// 100ms refills exactly one token.
	now = now.Add(100 * time.Millisecond)
	if ok, _ := a.AllowUser("u"); !ok {
		t.Fatal("refused after a full token refilled")
	}
	if ok, _ := a.AllowUser("u"); ok {
		t.Fatal("admitted twice off one refilled token")
	}

	// A long idle stretch caps at burst, not rate*elapsed.
	now = now.Add(time.Hour)
	for i := 0; i < 3; i++ {
		if ok, _ := a.AllowUser("u"); !ok {
			t.Fatalf("request %d refused after refill to burst", i)
		}
	}
	if ok, _ := a.AllowUser("u"); ok {
		t.Fatal("burst cap not applied after idle")
	}
	if st := a.Stats(); st.ShedUser != 3 {
		t.Fatalf("ShedUser = %d, want 3", st.ShedUser)
	}
}

// TestPerUserIsolation: one abusive user exhausting its bucket must not
// consume any other user's budget.
func TestPerUserIsolation(t *testing.T) {
	a := NewAdmission(AdmissionOptions{PerUserRate: 5, PerUserBurst: 2})
	now := time.Unix(2000, 0)
	a.now = func() time.Time { return now }

	for i := 0; i < 50; i++ {
		a.AllowUser("abuser") // mostly refused; keeps hammering
	}
	for i := 0; i < 2; i++ {
		if ok, _ := a.AllowUser("victim"); !ok {
			t.Fatalf("victim refused (request %d) while abuser floods", i)
		}
	}
	if ok, _ := a.AllowUser("abuser"); ok {
		t.Fatal("abuser admitted with an empty bucket")
	}
}

// TestAcquireQueueFull pins the gate: MaxInFlight requests run, MaxQueue
// wait, and the next one is shed immediately as queue-full.
func TestAcquireQueueFull(t *testing.T) {
	a := NewAdmission(AdmissionOptions{MaxInFlight: 2, MaxQueue: 1})

	rel1, err := a.Acquire(context.Background(), time.Time{})
	rel2, err2 := a.Acquire(context.Background(), time.Time{})
	if err != nil || err2 != nil {
		t.Fatal("gate refused below MaxInFlight")
	}

	// Third request queues (gate full, queue has room).
	queued := make(chan func(), 1)
	go func() {
		rel, err := a.Acquire(context.Background(), time.Time{})
		if err != nil {
			t.Error("queued request was shed")
		}
		queued <- rel
	}()
	waitFor(t, func() bool { return a.Stats().Queued == 1 })

	// Fourth request: queue full — shed.
	if _, err := a.Acquire(context.Background(), time.Time{}); !errors.Is(err, errQueueFull) {
		t.Fatalf("past a full queue: err = %v, want errQueueFull", err)
	}
	if st := a.Stats(); st.ShedQueue != 1 {
		t.Fatalf("ShedQueue = %d, want 1", st.ShedQueue)
	}

	// Releasing an in-flight slot admits the queued request.
	rel1()
	rel3 := <-queued
	rel3()
	rel2()
	waitFor(t, func() bool {
		st := a.Stats()
		return st.InFlight == 0 && st.Queued == 0
	})
	if st := a.Stats(); st.Admitted != 3 {
		t.Fatalf("Admitted = %d, want 3", st.Admitted)
	}
}

// TestAcquireQueueDeadline: a queued request gives up when its deadline
// passes, and one that never queues ignores a deadline already past.
func TestAcquireQueueDeadline(t *testing.T) {
	a := NewAdmission(AdmissionOptions{MaxInFlight: 1, MaxQueue: 1})
	rel, err := a.Acquire(context.Background(), time.Now().Add(-time.Second))
	if err != nil {
		t.Fatalf("free slot refused for a past deadline: %v", err)
	}
	defer rel()
	if _, err := a.Acquire(context.Background(), time.Now().Add(20*time.Millisecond)); !errors.Is(err, errQueueDeadline) {
		t.Fatalf("queued past its deadline: err = %v, want errQueueDeadline", err)
	}
	if st := a.Stats(); st.Queued != 0 || st.ShedQueue != 1 {
		t.Fatalf("after the deadline: Queued = %d, ShedQueue = %d, want 0, 1", st.Queued, st.ShedQueue)
	}
}

// TestAdmissionDisabled: a nil controller admits everything.
func TestAdmissionDisabled(t *testing.T) {
	if NewAdmission(AdmissionOptions{}) != nil {
		t.Fatal("zero options should build a nil (disabled) controller")
	}
	var a *Admission
	rel, err := a.Acquire(context.Background(), time.Time{})
	if err != nil {
		t.Fatal("nil admission refused a request")
	}
	rel()
	if ok, _ := a.AllowUser("anyone"); !ok {
		t.Fatal("nil admission rate-limited a user")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
