package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/serve"
)

// Sample classes: which latency series a request's round trip joins.
const (
	classRank = iota // R, C: a rank on a context that has not just changed
	classPoll        // A's rank: the first on the user's new context
	classApply
	classWrite
	classOther
	numClasses
)

// request is one pre-rendered HTTP request. Everything except the request
// id is fixed at plan time; send splices the id between head and tail.
type request struct {
	head  []byte // request line and headers up to "X-Request-ID: "
	tail  []byte // CRLF CRLF body
	class int
}

func newRequest(method, path, body string, class int) *request {
	head := fmt.Sprintf("%s %s HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: %d\r\nX-Request-ID: ",
		method, path, len(body))
	return &request{head: []byte(head), tail: []byte("\r\n\r\n" + body), class: class}
}

// Request ids: measured-pass requests carry "b" + 7 hex digits, numbered
// from 1 in send order; the trace wrappers key spans on that number.
// Everything else (set-up, checks) sends setupID, which they ignore.
const setupID = 0

func appendReqID(dst []byte, id uint32) []byte {
	if id == setupID {
		return append(dst, "setup"...)
	}
	const hex = "0123456789abcdef"
	dst = append(dst, 'b')
	for shift := 24; shift >= 0; shift -= 4 {
		dst = append(dst, hex[(id>>uint(shift))&0xf])
	}
	return dst
}

func parseReqID(s string) (uint32, bool) {
	if len(s) != 8 || s[0] != 'b' {
		return 0, false
	}
	n, err := strconv.ParseUint(s[1:], 16, 32)
	return uint32(n), err == nil
}

// client is the closed-loop request connection: one keep-alive TCP
// connection, one request in flight, the response read in full before the
// next request is written. It bypasses http.Client because the transport's
// read and write goroutines would add scheduler hops on a 2-core box.
type client struct {
	conn net.Conn
	br   *bufio.Reader
	out  []byte
	body bytes.Buffer
}

func dial(addr string, deadline time.Time) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	// One deadline for the connection's whole life keeps a wedged server
	// from hanging the benchmark past the driver's per-run limit.
	if err := conn.SetDeadline(deadline); err != nil {
		conn.Close()
		return nil, err
	}
	return &client{conn: conn, br: bufio.NewReaderSize(conn, 64<<10)}, nil
}

func (c *client) close() { c.conn.Close() }

// send writes the request and reads the whole response. The returned body
// is valid until the next send.
func (c *client) send(r *request, id uint32) (status int, body []byte, err error) {
	c.out = append(c.out[:0], r.head...)
	c.out = appendReqID(c.out, id)
	c.out = append(c.out, r.tail...)
	if _, err := c.conn.Write(c.out); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.body.Bytes(), nil
}

// call is send for set-up and check traffic: any non-2xx is an error, and
// a non-nil into receives the decoded JSON body.
func (c *client) call(r *request, into any) error {
	status, body, err := c.send(r, setupID)
	if err != nil {
		return err
	}
	if status < 200 || status > 299 {
		return fmt.Errorf("%s: HTTP %d: %s", firstLine(r.head), status, bytes.TrimSpace(body))
	}
	if into == nil {
		return nil
	}
	return json.Unmarshal(body, into)
}

func firstLine(head []byte) string {
	line, _, _ := bytes.Cut(head, []byte(" HTTP/1.1"))
	return string(line)
}

// pushEvent is one SSE event off the probe stream, stamped on receipt.
type pushEvent struct {
	serve.SubEvent
	recv time.Time
}

// probeStream is the benchmark's second connection: the SSE consumer of the
// probe subscription. A reader goroutine parses events and stamps their
// arrival; the load loop folds them into scores, so the two never share
// state.
type probeStream struct {
	conn   net.Conn
	events chan pushEvent
	done   chan struct{} // closed when the reader goroutine has exited

	scores  map[string]float64 // snapshot plus folded deltas
	lastSeq uint64
}

// pushBuffer holds every event that can queue between two drains: a drain
// happens at each P, and at most two W (one delta each) and a few A (no
// delta) run in between.
const pushBuffer = 64

func openProbeStream(addr string, deadline time.Time) (*probeStream, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if err := conn.SetDeadline(deadline); err != nil {
		conn.Close()
		return nil, err
	}
	_, err = fmt.Fprintf(conn, "GET /v1/subscriptions/%s/events HTTP/1.1\r\nHost: bench\r\nAccept: text/event-stream\r\n\r\n", probeSubID)
	if err != nil {
		conn.Close()
		return nil, err
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		conn.Close()
		return nil, fmt.Errorf("probe stream: HTTP %d", resp.StatusCode)
	}
	ps := &probeStream{
		conn:   conn,
		events: make(chan pushEvent, pushBuffer),
		done:   make(chan struct{}),
		scores: make(map[string]float64),
	}
	go ps.read(resp.Body)

	// The stream opens with the snapshot; set-up is not complete before
	// it has arrived.
	ev, ok := ps.next(2 * time.Second)
	if !ok || ev.Type != "snapshot" {
		ps.close()
		return nil, fmt.Errorf("probe stream: no opening snapshot (got %q)", ev.Type)
	}
	return ps, nil
}

// read parses "event:/data:" frames until the connection closes. Comment
// lines (keep-alives) and the event: line are skipped; data carries the
// type again.
func (ps *probeStream) read(body io.ReadCloser) {
	defer close(ps.done)
	defer close(ps.events)
	defer body.Close()
	br := bufio.NewReader(body)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		ev := pushEvent{recv: time.Now()}
		if json.Unmarshal([]byte(data), &ev.SubEvent) != nil {
			return
		}
		ps.events <- ev
	}
}

// fold applies one event to the folded scores.
func (ps *probeStream) fold(ev pushEvent) {
	switch ev.Type {
	case "snapshot", "resync":
		clear(ps.scores)
		for _, r := range ev.Results {
			ps.scores[r.ID] = r.Score
		}
	case "delta":
		for _, c := range ev.Changes {
			ps.scores[c.ID] = c.Score
		}
		for _, id := range ev.Removed {
			delete(ps.scores, id)
		}
	}
	if ev.Seq > ps.lastSeq {
		ps.lastSeq = ev.Seq
	}
}

// drain folds everything already received, without blocking.
func (ps *probeStream) drain() {
	for {
		select {
		case ev, ok := <-ps.events:
			if !ok {
				return
			}
			ps.fold(ev)
		default:
			return
		}
	}
}

// next blocks for the next event and folds it; ok is false on timeout or a
// closed stream.
func (ps *probeStream) next(timeout time.Duration) (pushEvent, bool) {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case ev, ok := <-ps.events:
		if ok {
			ps.fold(ev)
		}
		return ev, ok
	case <-timer.C:
		return pushEvent{}, false
	}
}

// close ends the stream and waits for the reader goroutine.
func (ps *probeStream) close() {
	ps.conn.Close()
	for range ps.events {
	}
	<-ps.done
}
