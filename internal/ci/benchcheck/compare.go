package main

import (
	"bufio"
	"bytes"
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchLine matches one `go test -bench` result line, e.g.
//
//	BenchmarkServeRankCached/cached-8   1964382   610.8 ns/op   96 B/op   3 allocs/op
//
// The B/op + allocs/op tail is present only under -benchmem; the alloc
// gates skip benchmarks that lack it, so the ns/op gate keeps working
// against old baselines taken without -benchmem.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([0-9.]+(?:e[+-]?[0-9]+)?) ns/op(?:\s+([0-9.]+) B/op\s+([0-9.]+) allocs/op)?`)

// procSuffix is the -N GOMAXPROCS suffix go test appends to a benchmark's
// name when GOMAXPROCS > 1. Names are compared without it, so a row naming
// BenchmarkVocabWriteRank/users=1 matches the same line under -cpu 1 (no
// suffix) and -cpu 8, and never users=16.
var procSuffix = regexp.MustCompile(`-\d+$`)

// Report is the JSON shape of one gates run (the BENCH_gates.json
// artifact): one verdict per row of the table, in table order.
type Report struct {
	Gates  []Verdict `json:"gates"`
	Failed int       `json:"failed"`
}

// Verdict is one row of the table and what the two runs made of it.
type Verdict struct {
	Gate
	// Regression rows: every benchmark the pattern matches in both runs,
	// and those it matches in only one, which never fail the row (a new
	// benchmark has no baseline; a deleted one has no new value).
	Benchmarks []Result `json:"benchmarks,omitempty"`
	OnlyOld    []string `json:"only_old,omitempty"`
	OnlyNew    []string `json:"only_new,omitempty"`
	// AllocsOp is a cap row's candidate median allocs/op.
	AllocsOp *float64 `json:"allocs_op,omitempty"`
	// NumNsOp and DenNsOp are a ratio row's candidate medians; Delta is
	// num/den − 1, held to the row's bound.
	NumNsOp float64 `json:"num_ns_op,omitempty"`
	DenNsOp float64 `json:"den_ns_op,omitempty"`
	Delta   float64 `json:"delta,omitempty"`
	// Missing names what the row needed and the runs did not carry: a
	// capped benchmark without a -benchmem sample, a ratio side without a
	// sample, or a regression pattern that matched nothing in either run.
	// A silently skipped gate is not a gate, so a missing name fails the row.
	Missing []string `json:"missing,omitempty"`
	Fail    bool     `json:"fail"`
}

// Result compares one benchmark's median ns/op — and, when both runs
// carry -benchmem columns, median allocs/op and B/op — across the two
// files.
type Result struct {
	Name       string  `json:"name"`
	OldNsOp    float64 `json:"old_ns_op"`
	NewNsOp    float64 `json:"new_ns_op"`
	Delta      float64 `json:"delta"` // (new-old)/old; positive = slower
	Regression bool    `json:"regression"`

	OldAllocsOp *float64 `json:"old_allocs_op,omitempty"`
	NewAllocsOp *float64 `json:"new_allocs_op,omitempty"`
	OldBytesOp  *float64 `json:"old_b_op,omitempty"`
	NewBytesOp  *float64 `json:"new_b_op,omitempty"`
	// AllocDelta is (new-old)/old allocs/op; an old median of zero makes
	// any new allocation an automatic regression (delta reported as +Inf
	// would not survive JSON, so it is clamped to the new count).
	AllocDelta      float64 `json:"alloc_delta,omitempty"`
	AllocRegression bool    `json:"alloc_regression,omitempty"`
}

// metrics holds one benchmark's medians over its -count repetitions.
type metrics struct {
	ns     float64
	bytes  float64
	allocs float64
	hasMem bool
}

// Compare parses the baseline and candidate bench outputs and holds them to
// every row of gates: regression rows compare the two runs, cap and ratio
// rows read the candidate alone.
func Compare(oldData, newData []byte, gates []Gate) (Report, error) {
	newMed, err := medians(newData)
	if err != nil {
		return Report{}, fmt.Errorf("candidate: %w", err)
	}
	if len(newMed) == 0 {
		return Report{}, fmt.Errorf("no benchmark results in the candidate file")
	}
	oldMed, err := medians(oldData)
	if err != nil {
		return Report{}, fmt.Errorf("baseline: %w", err)
	}
	var rep Report
	for _, g := range gates {
		v := Verdict{Gate: g}
		switch g.Kind {
		case kindRegression:
			compareRuns(&v, oldMed, newMed)
		case kindCap:
			if m, ok := newMed[g.Name]; !ok || !m.hasMem {
				v.Missing = []string{g.Name}
			} else {
				v.AllocsOp = &m.allocs
				v.Fail = m.allocs > *g.MaxAllocs
			}
		case kindRatio:
			num, okNum := newMed[g.Num]
			den, okDen := newMed[g.Den]
			if !okNum {
				v.Missing = append(v.Missing, g.Num)
			}
			if !okDen {
				v.Missing = append(v.Missing, g.Den)
			}
			if okNum && okDen {
				v.NumNsOp, v.DenNsOp = num.ns, den.ns
				if den.ns > 0 {
					v.Delta = (num.ns - den.ns) / den.ns
				}
				v.Fail = v.Delta > *g.Bound
			}
		}
		if len(v.Missing) > 0 {
			v.Fail = true
		}
		if v.Fail {
			rep.Failed++
		}
		rep.Gates = append(rep.Gates, v)
	}
	return rep, nil
}

// compareRuns fills a regression row's verdict: every benchmark whose
// top-level name the row's pattern matches, as go test -bench matches it.
func compareRuns(v *Verdict, oldMed, newMed map[string]metrics) {
	matches := func(name string) bool {
		top, _, _ := strings.Cut(name, "/")
		return v.re.MatchString(top)
	}
	for _, name := range sortedKeys(oldMed) {
		if _, ok := newMed[name]; !ok && matches(name) {
			v.OnlyOld = append(v.OnlyOld, name)
		}
	}
	for _, name := range sortedKeys(newMed) {
		if !matches(name) {
			continue
		}
		old, ok := oldMed[name]
		if !ok {
			v.OnlyNew = append(v.OnlyNew, name)
			continue
		}
		nw := newMed[name]
		r := Result{Name: name, OldNsOp: old.ns, NewNsOp: nw.ns}
		if old.ns > 0 {
			r.Delta = (r.NewNsOp - old.ns) / old.ns
		}
		r.Regression = r.Delta > *v.Ns
		if old.hasMem && nw.hasMem {
			oa, na, ob, nb := old.allocs, nw.allocs, old.bytes, nw.bytes
			r.OldAllocsOp, r.NewAllocsOp = &oa, &na
			r.OldBytesOp, r.NewBytesOp = &ob, &nb
			if oa > 0 {
				r.AllocDelta = (na - oa) / oa
			} else if na > 0 {
				r.AllocDelta = na
			}
			if v.Allocs != nil {
				r.AllocRegression = r.AllocDelta > *v.Allocs
			}
		}
		v.Fail = v.Fail || r.Regression || r.AllocRegression
		v.Benchmarks = append(v.Benchmarks, r)
	}
	if len(v.Benchmarks)+len(v.OnlyOld)+len(v.OnlyNew) == 0 {
		v.Missing = []string{v.Pattern}
	}
}

// medians collects each benchmark's median ns/op (and allocs/B per op
// when every sample carries -benchmem columns) over its -count
// repetitions, keyed by name without the GOMAXPROCS suffix.
func medians(data []byte) (map[string]metrics, error) {
	type sample struct{ ns, bytes, allocs []float64 }
	samples := make(map[string]*sample)
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("bad ns/op in %q: %w", sc.Text(), err)
		}
		name := procSuffix.ReplaceAllString(m[1], "")
		s := samples[name]
		if s == nil {
			s = &sample{}
			samples[name] = s
		}
		s.ns = append(s.ns, ns)
		if m[3] != "" {
			b, err := strconv.ParseFloat(m[3], 64)
			if err != nil {
				return nil, fmt.Errorf("bad B/op in %q: %w", sc.Text(), err)
			}
			a, err := strconv.ParseFloat(m[4], 64)
			if err != nil {
				return nil, fmt.Errorf("bad allocs/op in %q: %w", sc.Text(), err)
			}
			s.bytes = append(s.bytes, b)
			s.allocs = append(s.allocs, a)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make(map[string]metrics, len(samples))
	for name, s := range samples {
		m := metrics{ns: median(s.ns)}
		if len(s.allocs) == len(s.ns) && len(s.ns) > 0 {
			m.hasMem = true
			m.bytes = median(s.bytes)
			m.allocs = median(s.allocs)
		}
		out[name] = m
	}
	return out, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func sortedKeys(m map[string]metrics) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
