package main

import (
	"bytes"
	"fmt"
	"time"
)

// passResult is what executing an op list yields, client side. run appends
// to it, so a list may be executed in pieces.
type passResult struct {
	cycles   []cycleTime
	ops      int // weighted as the tables count them (A = 2)
	requests uint32
	failed   int
	firstErr error

	lat     [numClasses][]int64 // request round trips, ns
	push    []int64             // P: PUT sent to delta received, ns
	pushLag []int64             // P: PUT acknowledged to delta received, ns

	hotRanks, hotCached   int // R responses, and those reporting "cached":true
	coldRanks, coldCached int // likewise for C

	// Traced passes: request n's client span and sample class, at n-1.
	spans   []span
	classes []int8
}

// cycleTime is what one cycle of the op list took; the run reports the
// third fastest, so interference from a neighbouring container spoils
// cycles, not the run.
type cycleTime struct {
	ops       int
	wall, cpu time.Duration
}

var cachedTrue = []byte(`"cached":true`)

func (res *passResult) fail(err error) {
	res.failed++
	if res.firstErr == nil {
		res.firstErr = err
	}
}

// run executes ops closed-loop on the stack's request connection, timing
// every cycleOps steps as a cycle (a trailing partial one is left out; none
// at all when cycleOps is 0). A non-nil tracer also records one client span
// per request.
func (res *passResult) run(s *stack, ops []op, cycleOps int, tr *tracer) error {
	// roundTrip sends one request and files its latency; ok means 2xx.
	roundTrip := func(r *request) (body []byte, sent, acked time.Time, ok bool) {
		res.requests++
		sent = time.Now()
		status, body, err := s.cl.send(r, res.requests)
		acked = time.Now()
		if tr != nil {
			res.spans = append(res.spans, span{Name: spanClient, Req: res.requests, Start: int64(sent.Sub(tr.t0)), End: int64(acked.Sub(tr.t0))})
			res.classes = append(res.classes, int8(r.class))
		}
		switch {
		case err != nil:
			res.fail(fmt.Errorf("%s: %w", firstLine(r.head), err))
		case status < 200 || status > 299:
			res.fail(fmt.Errorf("%s: HTTP %d: %s", firstLine(r.head), status, bytes.TrimSpace(body)))
		default:
			res.lat[r.class] = append(res.lat[r.class], int64(acked.Sub(sent)))
			ok = true
		}
		return body, sent, acked, ok
	}

	start, startOps := time.Now(), res.ops
	startCPU, err := cpuTime()
	if err != nil {
		return err
	}
	closeCycle := func() error {
		now := time.Now()
		cpu, err := cpuTime()
		res.cycles = append(res.cycles, cycleTime{ops: res.ops - startOps, wall: now.Sub(start), cpu: cpu - startCPU})
		start, startOps, startCPU = now, res.ops, cpu
		return err
	}
	for i, o := range ops {
		if cycleOps > 0 && i > 0 && i%cycleOps == 0 {
			if err := closeCycle(); err != nil {
				return err
			}
		}
		res.ops += opWeight(o.kind)
		switch o.kind {
		case 'R', 'C':
			body, _, _, ok := roundTrip(o.rank)
			if !ok {
				continue
			}
			cached := bytes.Contains(body, cachedTrue)
			if o.kind == 'R' {
				res.hotRanks++
				if cached {
					res.hotCached++
				}
			} else {
				res.coldRanks++
				if cached {
					res.coldCached++
				}
			}
		case 'A':
			roundTrip(o.put)
			roundTrip(o.rank)
		case 'W':
			roundTrip(o.put)
		case 'P':
			s.probe.drain()
			seen := s.probe.lastSeq
			_, sent, acked, ok := roundTrip(o.put)
			if !ok {
				continue
			}
			// Every prob is redrawn on each PUT, so the probe's scores
			// always move and a delta (or, after a lag, a resync) follows.
			for {
				ev, ok := s.probe.next(pushTimeout)
				if !ok {
					res.fail(fmt.Errorf("P: no delta within %s of the PUT", pushTimeout))
					break
				}
				if ev.Seq > seen {
					res.push = append(res.push, int64(ev.recv.Sub(sent)))
					res.pushLag = append(res.pushLag, int64(ev.recv.Sub(acked)))
					break
				}
			}
		}
	}
	if cycleOps > 0 && len(ops)%cycleOps == 0 {
		return closeCycle()
	}
	return nil
}
