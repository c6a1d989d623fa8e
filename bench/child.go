package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// Every cold set-up but the first, and every recovery, runs in a child
// process of its own. serve.Server has no Close: its subscription evaluator
// goroutine stays parked and keeps the whole stack reachable, so a stack
// built and dropped in this process would stay in its heap (20 to 40 MB
// each) and in every collection of the timed pass. A child takes its stack
// with it, and starts each timed boot from the same fresh heap. The child
// times itself, so the process start is not part of the number.

// childEnv marks a process as re-executed by spawn; bench_test.go's
// TestMain runs the benchmark's main on it, so the test binary serves as
// its own child.
const childEnv = "BENCH_CHILD"

// expectation is what a recovery must bring back, handed to the child in a
// file beside the crash image.
type expectation struct {
	Sessions int
	Want     map[string]userState
}

// childResult is the one line a child prints.
type childResult struct {
	Seconds float64 // the timed boot
	Records int     // journal records a recovery replayed
}

// spawn runs one timed boot in a child and returns what it measured. kind
// is "setup" or "recover"; dir is the child's own data directory and image
// the crash image a recovery boots from.
func spawn(kind string, cfg runConfig, dir, image string) (childResult, error) {
	var res childResult
	self, err := os.Executable()
	if err != nil {
		return res, err
	}
	cmd := exec.Command(self,
		"-child", kind, "-workload", cfg.wl.name, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-datadir", dir, "-image", image)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return res, fmt.Errorf("%s child: %w", kind, err)
	}
	if err := json.Unmarshal(bytes.TrimSpace(out), &res); err != nil {
		return res, fmt.Errorf("%s child printed %q: %w", kind, out, err)
	}
	return res, nil
}

func expectationPath(image string) string { return image + ".expect.json" }

func writeExpectation(image string, e expectation) error {
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	return os.WriteFile(expectationPath(image), data, 0o644)
}

// runChild is the child's main: one cold set-up, or one recovery of image
// checked against its expectation, timed and printed.
func runChild(kind string, wl *workload, seed int64, dir, image string) error {
	var res childResult
	switch kind {
	case "setup":
		// The set-up traffic comes first in the seed's stream, so a plan
		// without ops sends the same bytes as the parent's.
		p := newPlan(wl, seed, 0)
		start := time.Now()
		s, err := setup(dir, p, nil)
		if err != nil {
			return err
		}
		res.Seconds = time.Since(start).Seconds()
		s.close()
	case "recover":
		data, err := os.ReadFile(expectationPath(image))
		if err != nil {
			return err
		}
		var e expectation
		if err := json.Unmarshal(data, &e); err != nil {
			return err
		}
		if err := os.RemoveAll(dir); err != nil { // left over from a killed run
			return err
		}
		r, err := recoverOnce(image, dir, e.Sessions, e.Want)
		if err != nil {
			return err
		}
		res.Seconds, res.Records = r.elapsed.Seconds(), r.stats.Records
	default:
		return fmt.Errorf("unknown -child %q", kind)
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}
