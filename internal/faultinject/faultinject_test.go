package faultinject

import (
	"errors"
	"strings"
	"syscall"
	"testing"
)

func TestNilAndDisabledInjectorAreNoops(t *testing.T) {
	var nilIn *Injector
	if err := nilIn.Fire(RankServe, 0); err != nil {
		t.Fatalf("nil injector fired: %v", err)
	}
	if nilIn.Enabled() {
		t.Fatal("nil injector claims enabled")
	}
	if err := nilIn.Arm(Fault{Point: RankServe}); err == nil {
		t.Fatal("nil injector accepted Arm")
	}

	in := New(1)
	if in.Enabled() {
		t.Fatal("fresh injector claims enabled")
	}
	if err := in.Fire(RankServe, 0); err != nil {
		t.Fatalf("disabled injector fired: %v", err)
	}
}

func TestArmValidation(t *testing.T) {
	in := New(1)
	if err := in.Arm(Fault{}); err == nil {
		t.Fatal("armed a fault with no point")
	}
	if err := in.Arm(Fault{Point: RankServe, Nth: -1}); err == nil {
		t.Fatal("armed a negative nth")
	}
	if err := in.Arm(Fault{Point: RankServe, Rate: 1.5}); err == nil {
		t.Fatal("armed an out-of-range rate")
	}
}

func TestEveryOpAndErrorMapping(t *testing.T) {
	in := New(1)
	if err := in.Arm(Fault{Point: FSSync, Err: "ENOSPC"}); err != nil {
		t.Fatal(err)
	}
	err := in.FireFS(FSSync, "/tmp/x.wal")
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("want ENOSPC, got %v", err)
	}
	// Other points are unaffected.
	if err := in.FireFS(FSWrite, "/tmp/x.wal"); err != nil {
		t.Fatalf("unarmed point fired: %v", err)
	}
}

func TestNthAfterCountTriggers(t *testing.T) {
	in := New(1)
	// Skip 2 ops, then fire every 3rd matching op, at most twice.
	if err := in.Arm(Fault{Point: RankServe, Nth: 3, After: 2, Count: 2}); err != nil {
		t.Fatal(err)
	}
	var fired []int
	for op := 1; op <= 14; op++ {
		if err := in.Fire(RankServe, 0); err != nil {
			fired = append(fired, op)
		}
	}
	// past = op-2; fires at past=3,6 -> ops 5, 8; count=2 stops there.
	if len(fired) != 2 || fired[0] != 5 || fired[1] != 8 {
		t.Fatalf("fired at %v, want [5 8]", fired)
	}
}

func TestRateIsDeterministicPerSeed(t *testing.T) {
	run := func() []int {
		in := New(42)
		if err := in.Arm(Fault{Point: BroadcastApply, Rate: 0.5}); err != nil {
			t.Fatal(err)
		}
		var fired []int
		for op := 0; op < 32; op++ {
			if err := in.Fire(BroadcastApply, 1); err != nil {
				fired = append(fired, op)
			}
		}
		return fired
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) == 32 {
		t.Fatalf("rate 0.5 fired %d/32 — trigger not probabilistic", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged: %v vs %v", a, b)
		}
	}
}

func TestShardAndMatchSelectors(t *testing.T) {
	in := New(1)
	shard := 2
	if err := in.Arm(Fault{Point: BroadcastApply, Shard: &shard}); err != nil {
		t.Fatal(err)
	}
	if err := in.Fire(BroadcastApply, 1); err != nil {
		t.Fatalf("wrong shard fired: %v", err)
	}
	if err := in.Fire(BroadcastApply, 2); err == nil {
		t.Fatal("selected shard did not fire")
	}

	if err := in.Arm(Fault{Point: FSWrite, Match: "-001.wal"}); err != nil {
		t.Fatal(err)
	}
	if _, err := in.FireWrite(FSWrite, "/d/sessions-abc-000.wal", 10); err != nil {
		t.Fatalf("unmatched path fired: %v", err)
	}
	if _, err := in.FireWrite(FSWrite, "/d/sessions-abc-001.wal", 10); err == nil {
		t.Fatal("matched path did not fire")
	}
}

func TestTornWriteAllowsHalf(t *testing.T) {
	in := New(1)
	if err := in.Arm(Fault{Point: FSWrite, Torn: true, Err: "EIO"}); err != nil {
		t.Fatal(err)
	}
	allow, err := in.FireWrite(FSWrite, "x.wal", 100)
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("want EIO, got %v", err)
	}
	if allow != 50 {
		t.Fatalf("torn write allowed %d bytes, want 50", allow)
	}
}

func TestPanicFault(t *testing.T) {
	in := New(1)
	if err := in.Arm(Fault{Point: RankServe, Panic: "boom"}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("panic fault did not panic")
		}
		if s, ok := v.(string); !ok || !strings.Contains(s, "boom") {
			t.Fatalf("panic payload %v", v)
		}
	}()
	_ = in.Fire(RankServe, 0)
}

func TestDisarmAndClear(t *testing.T) {
	in := New(1)
	if err := in.Arm(Fault{Point: RankServe}); err != nil {
		t.Fatal(err)
	}
	if err := in.Arm(Fault{Point: FSSync}); err != nil {
		t.Fatal(err)
	}
	if n := in.Disarm(RankServe); n != 1 {
		t.Fatalf("disarmed %d, want 1", n)
	}
	if err := in.Fire(RankServe, 0); err != nil {
		t.Fatalf("disarmed point fired: %v", err)
	}
	if !in.Enabled() {
		t.Fatal("injector disabled with a fault still armed")
	}
	in.Clear()
	if in.Enabled() {
		t.Fatal("injector enabled after Clear")
	}
	if err := in.FireFS(FSSync, "x"); err != nil {
		t.Fatalf("cleared injector fired: %v", err)
	}
}

func TestSnapshotCountsOpsAndFires(t *testing.T) {
	in := New(1)
	if err := in.Arm(Fault{Point: RankServe, Nth: 2}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		_ = in.Fire(RankServe, 0)
	}
	snap := in.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d faults", len(snap))
	}
	if snap[0].Ops != 4 || snap[0].Fires != 2 {
		t.Fatalf("ops=%d fires=%d, want 4/2", snap[0].Ops, snap[0].Fires)
	}
}

func TestFirstHitWinsAndCountersAdvanceForAll(t *testing.T) {
	in := New(1)
	if err := in.Arm(Fault{Point: FSSync, Err: "ENOSPC"}); err != nil {
		t.Fatal(err)
	}
	if err := in.Arm(Fault{Point: FSSync, Err: "EACCES"}); err != nil {
		t.Fatal(err)
	}
	err := in.FireFS(FSSync, "x")
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("first armed fault should win, got %v", err)
	}
	snap := in.Snapshot()
	if snap[0].Ops != 1 || snap[1].Ops != 1 {
		t.Fatalf("both faults should count the op: %+v", snap)
	}
}

// Disarm removes every fault at point, returning how many were removed.
func (in *Injector) Disarm(p Point) int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	kept := in.faults[:0]
	removed := 0
	for _, a := range in.faults {
		if a.f.Point == p {
			removed++
			continue
		}
		kept = append(kept, a)
	}
	in.faults = kept
	in.enabled.Store(len(kept) > 0)
	in.mu.Unlock()
	return removed
}

// Enabled reports lock-free whether any fault is armed.
func (in *Injector) Enabled() bool { return in != nil && in.enabled.Load() }
