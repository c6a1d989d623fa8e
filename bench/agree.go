package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runAgree is the acceptance check, the driver's own: two sets of n
// end-to-end runs per workload, each run a fresh process on its own seed
// (1..n in both sets), compared cell by cell. A cell fails when its two
// medians differ by more than the metric's bound, or when either set's
// spread — the interquartile range over the median — exceeds it (setup_s is
// exempt from the second, as in the contract); the spreads should stay below
// a third of the bound. The medians of all 2n runs go to out/baseline.json,
// tagged with the machine.
func runAgree(selected []*workload, n int, seconds, scale float64) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	// values[workload][metric][set] are the n runs' readings.
	values := make(map[string]map[string][2][]float64)
	for set := 0; set < 2; set++ {
		for _, wl := range selected {
			if values[wl.name] == nil {
				values[wl.name] = make(map[string][2][]float64)
			}
			for seed := 1; seed <= n; seed++ {
				start := time.Now()
				res, err := runSelf(self, wl.name, seed, seconds, scale)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: set %c, %s, seed %d: %v\n", 'A'+set, wl.name, seed, err)
					return 1
				}
				fmt.Fprintf(os.Stderr, "set %c  %-14s seed %-3d %5.1f s\n", 'A'+set, wl.name, seed, time.Since(start).Seconds())
				for name, m := range res.Metrics {
					cell := values[wl.name][name]
					cell[set] = append(cell[set], m.Value)
					values[wl.name][name] = cell
				}
			}
		}
	}

	status := 0
	baseline := map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"kernel":     kernelRelease(),
		"go":         runtime.Version(),
		"runs":       2 * n,
		"seconds":    seconds,
		"scale":      scale,
		"aggregate":  "median over all runs of both sets",
		"benchmarks": map[string]map[string]float64{},
	}
	fmt.Println("| workload | metric | median A | median B | diff | spread A | spread B | bound | |")
	fmt.Println("| --- | --- | ---: | ---: | ---: | ---: | ---: | ---: | --- |")
	for _, wl := range selected {
		medians := make(map[string]float64)
		for _, d := range endToEnd {
			cell := values[wl.name][d.name]
			a, b := medianOf(cell[0]), medianOf(cell[1])
			diff := math.Abs(a-b) / math.Min(a, b)
			spreadA, spreadB := spread(cell[0]), spread(cell[1])
			verdict := "ok"
			if !(diff <= d.bound) || d.name != "setup_s" && !(math.Max(spreadA, spreadB) <= d.bound) {
				verdict = "FAIL"
				status = 1
			}
			fmt.Printf("| %s | %s | %.4g | %.4g | %.1f%% | %.1f%% | %.1f%% | %.0f%% | %s |\n",
				wl.name, d.name, a, b, 100*diff, 100*spreadA, 100*spreadB, 100*d.bound, verdict)
			medians[d.name] = medianOf(append(append([]float64(nil), cell[0]...), cell[1]...))
		}
		baseline["benchmarks"].(map[string]map[string]float64)[wl.name] = medians
	}

	data, err := json.MarshalIndent(baseline, "", "  ")
	if err == nil {
		if err = os.MkdirAll(outDir, 0o755); err == nil {
			err = os.WriteFile(filepath.Join(outDir, "baseline.json"), append(data, '\n'), 0o644)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: writing baseline: %v\n", err)
		return 1
	}
	return status
}

// runSelf runs one end-to-end run in a child process and parses its last
// line. A fresh process per run is what the driver does, and keeps rss_mb
// from accumulating across runs.
func runSelf(self, workload string, seed int, seconds, scale float64) (*jsonResult, error) {
	cmd := exec.Command(self,
		"-workload", workload, "-seed", strconv.Itoa(seed), "-trace", "0",
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-scale", strconv.FormatFloat(scale, 'g', -1, 64))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%w\n%s", err, out)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res jsonResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("last line is not the result object: %w", err)
	}
	if !res.Correct || res.Failed > 0 {
		return nil, fmt.Errorf("run reported correct=%v, %d failed ops", res.Correct, res.Failed)
	}
	return &res, nil
}

// spread is the distance between the first and third quartile as a share of
// the median, with quartiles as Python's statistics.quantiles(v, n=4)
// computes them (the driver's definition).
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / medianOf(s)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

func kernelRelease() string {
	data, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}
