// Package faultinject is the deterministic fault-injection layer behind
// the serving stack's failure-domain tests and the chaos smoke. Faults
// are armed at runtime (no build tags): an Injector holds a list of
// armed Faults, each naming an injection Point (a filesystem operation
// of the journal's FS seam, a shard broadcast apply, the rank path) and
// a trigger — every op, every nth op, after a warmup, a seeded random
// rate, a bounded fire count. A fired fault injects a delay, an error
// (ENOSPC/EIO/... mapped to real syscall errors so errors.Is works), a
// panic, or a torn short-write.
//
// Determinism: triggers are per-fault op counters plus one seeded PRNG,
// both advanced under the injector's mutex, so a single-threaded test
// replays identically for a given seed and arm order.
//
// Cost when disabled: every hook is Fire/FireFS on a possibly-nil
// injector, which is one nil check plus one atomic load (false unless
// at least one fault is armed). The hot rank path stays allocation-free.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Point names an injection site.
type Point string

const (
	// FSOpen / FSWrite / FSSync / FSRename / FSRemove are the journal
	// FS-seam operations (see FS in this package). Match selects files
	// by path substring.
	FSOpen   Point = "fs.open"
	FSWrite  Point = "fs.write"
	FSSync   Point = "fs.sync"
	FSRename Point = "fs.rename"
	FSRemove Point = "fs.remove"
	// BroadcastApply fires inside the per-shard broadcast fan-out
	// goroutine, before the shard applies the vocabulary write. Shard
	// selects the replica.
	BroadcastApply Point = "broadcast.apply"
	// RankServe fires at the top of the coordinator's rank path.
	RankServe Point = "rank.serve"
)

// Fault is one armed fault: where it fires (Point plus the Shard/Match
// selectors), when it fires (Nth/Rate/After/Count), and what it injects
// (Delay, then Panic or an error). With neither Err nor Panic set, a
// fault with a delay injects only the delay; otherwise it injects EIO.
type Fault struct {
	Point Point `json:"point"`
	// Err names the injected error: ENOSPC, EIO, EACCES, or free text.
	Err string `json:"err,omitempty"`
	// Panic makes the fired fault panic with this message instead of
	// returning an error.
	Panic string `json:"panic,omitempty"`
	// DelayMs sleeps before the (optional) error/panic.
	DelayMs int `json:"delay_ms,omitempty"`
	// Torn makes a fired fs.write fault write half the buffer before
	// failing — the torn-tail crash artifact.
	Torn bool `json:"torn,omitempty"`
	// Nth fires on every nth matching op after After (1 = every op).
	// When zero, Rate (if set) decides; otherwise every op fires.
	Nth int `json:"nth,omitempty"`
	// Rate is the per-op fire probability when Nth is zero.
	Rate float64 `json:"rate,omitempty"`
	// After skips the first After matching ops.
	After int `json:"after,omitempty"`
	// Count disarms the fault after this many fires (0 = unlimited).
	Count int `json:"count,omitempty"`
	// Shard restricts broadcast.apply / rank.serve faults to one shard.
	Shard *int `json:"shard,omitempty"`
	// Match restricts fs.* faults to paths containing this substring
	// (e.g. "-001.wal" for shard 1's journal, ".compact" for the
	// compaction temp file, "manifest" for manifest switches).
	Match string `json:"match,omitempty"`
}

// FaultStatus is a Fault plus its live trigger counters.
type FaultStatus struct {
	Fault
	Ops   int64 `json:"ops"`
	Fires int64 `json:"fires"`
}

type armed struct {
	f     Fault
	ops   int64
	fires int64
}

// Injector is a set of armed faults. The zero value and the nil pointer
// are valid, permanently-disabled injectors.
type Injector struct {
	enabled atomic.Bool // true while at least one fault is armed
	mu      sync.Mutex
	rng     *rand.Rand
	faults  []*armed
}

// New returns an Injector whose Rate triggers draw from a PRNG seeded
// with seed.
func New(seed int64) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed))}
}

// Arm adds a fault. Errors on an empty point or out-of-range trigger.
func (in *Injector) Arm(f Fault) error {
	if in == nil {
		return errors.New("faultinject: nil injector")
	}
	if f.Point == "" {
		return errors.New("faultinject: fault needs a point")
	}
	if f.Nth < 0 || f.After < 0 || f.Count < 0 || f.DelayMs < 0 {
		return fmt.Errorf("faultinject: negative trigger in %+v", f)
	}
	if f.Rate < 0 || f.Rate > 1 {
		return fmt.Errorf("faultinject: rate %v out of [0,1]", f.Rate)
	}
	in.mu.Lock()
	in.faults = append(in.faults, &armed{f: f})
	if in.rng == nil {
		in.rng = rand.New(rand.NewSource(1))
	}
	in.mu.Unlock()
	in.enabled.Store(true)
	return nil
}

// Clear disarms everything.
func (in *Injector) Clear() {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.faults = nil
	in.mu.Unlock()
	in.enabled.Store(false)
}

// Snapshot returns every armed fault with its counters.
func (in *Injector) Snapshot() []FaultStatus {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]FaultStatus, 0, len(in.faults))
	for _, a := range in.faults {
		out = append(out, FaultStatus{Fault: a.f, Ops: a.ops, Fires: a.fires})
	}
	return out
}

// Fire evaluates the faults at a shard-selected point (broadcast.apply,
// rank.serve). shard < 0 matches any selector. A fired panic fault
// panics; a fired error fault returns the mapped error; a delay-only
// fault sleeps and returns nil.
func (in *Injector) Fire(p Point, shard int) error {
	if in == nil || !in.enabled.Load() {
		return nil
	}
	_, err := in.eval(p, shard, "", 0)
	return err
}

// FireFS is Fire for path-selected filesystem points.
func (in *Injector) FireFS(p Point, path string) error {
	if in == nil || !in.enabled.Load() {
		return nil
	}
	_, err := in.eval(p, -1, path, 0)
	return err
}

// FireWrite evaluates fs.write faults for an n-byte write to path. It
// returns how many bytes the caller should actually write (n when no
// fault fired, n/2 for a torn write, 0 otherwise) and the injected
// error.
func (in *Injector) FireWrite(p Point, path string, n int) (int, error) {
	if in == nil || !in.enabled.Load() {
		return n, nil
	}
	return in.eval(p, -1, path, n)
}

// eval advances trigger counters for every matching fault and applies
// the first that fires.
func (in *Injector) eval(p Point, shard int, path string, n int) (int, error) {
	var hit *Fault
	in.mu.Lock()
	for _, a := range in.faults {
		f := &a.f
		if f.Point != p {
			continue
		}
		if f.Shard != nil && shard >= 0 && *f.Shard != shard {
			continue
		}
		if f.Match != "" && !strings.Contains(path, f.Match) {
			continue
		}
		a.ops++
		if f.Count > 0 && a.fires >= int64(f.Count) {
			continue
		}
		past := a.ops - int64(f.After)
		if past <= 0 {
			continue
		}
		switch {
		case f.Nth > 0:
			if past%int64(f.Nth) != 0 {
				continue
			}
		case f.Rate > 0:
			if in.rng.Float64() >= f.Rate {
				continue
			}
		}
		a.fires++
		if hit == nil {
			hit = f
		}
	}
	in.mu.Unlock()
	if hit == nil {
		return n, nil
	}
	if hit.DelayMs > 0 {
		time.Sleep(time.Duration(hit.DelayMs) * time.Millisecond)
	}
	if hit.Panic != "" {
		panic(fmt.Sprintf("faultinject: %s: %s", p, hit.Panic))
	}
	if hit.Err == "" && hit.Panic == "" && hit.DelayMs > 0 {
		return n, nil // delay-only fault
	}
	allow := 0
	if hit.Torn {
		allow = n / 2
	}
	return allow, fmt.Errorf("faultinject: %s: %w", p, mapErr(hit.Err))
}

// mapErr turns an error name into a comparable error value. Known
// errno names map to the real syscall errors so errors.Is(err,
// syscall.ENOSPC) sees exactly what a full disk would produce.
func mapErr(name string) error {
	switch strings.ToUpper(name) {
	case "", "EIO":
		return syscall.EIO
	case "ENOSPC":
		return syscall.ENOSPC
	case "EACCES":
		return syscall.EACCES
	case "EMFILE":
		return syscall.EMFILE
	default:
		return errors.New(name)
	}
}
