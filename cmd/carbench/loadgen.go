package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	contextrank "repro"
	"repro/internal/serve"
	"repro/internal/serve/shard"
	"repro/internal/workload"
)

// loadgenConfig parametrizes the serve-layer load generator.
type loadgenConfig struct {
	Spec        workload.Spec
	Rules       int           // preference rules registered up front
	Shards      int           // shard replicas (<=1 runs the unsharded Server)
	Clients     int           // concurrent goroutine clients
	Duration    time.Duration // wall-clock run length
	Churn       int           // every Churn ranks a client rotates its session context (0 = never)
	AssertEvery time.Duration // background fact-assertion interval, a broadcast write under sharding (0 = off)
	CacheSize   int
	CtxProb     float64 // membership probability of session measurements; < 1 declares (and retires) basic events per apply
	Quiet       bool    // suppress the per-run detail lines (the shard curve prints its own table)
}

// loadgenResult is one load-generation run's outcome, consumed by the
// shard scaling curve.
type loadgenResult struct {
	Shards    int
	Ranks     int64
	Shed      int64 // 429s — reported separately, never folded into errors
	Elapsed   time.Duration
	ReqPerSec float64
	Stats     serve.Stats
}

// runServeLoadgen stands up the full serving stack — N sharded Systems +
// facades + sessions + caches + HTTP — on a loopback listener and drives
// it with concurrent goroutine clients ranking the TV-watcher dataset
// over real HTTP, with per-client session churn supplying the "apply"
// half of the mixed apply+rank workload. It reports sustained throughput,
// cache effectiveness and tail latency: the evidence that the serve layer
// turns the single-user reproduction into a concurrent service, and (via
// -shards) that sharding turns one write-serialized System into N
// independent ones.
func runServeLoadgen(cfg loadgenConfig) (loadgenResult, error) {
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	build := func(int) (*contextrank.System, error) {
		sys := contextrank.NewSystem()
		if _, err := workload.LoadBench(sys.Loader(), sys.Rules(), cfg.Spec, cfg.Rules); err != nil {
			return nil, err
		}
		return sys, nil
	}
	var backend serve.Backend
	if shards > 1 {
		coord, err := shard.New(shards, build, serve.Options{CacheSize: cfg.CacheSize})
		if err != nil {
			return loadgenResult{}, err
		}
		backend = coord
	} else {
		sys, err := build(0)
		if err != nil {
			return loadgenResult{}, err
		}
		backend = serve.NewServer(sys, serve.Options{CacheSize: cfg.CacheSize})
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return loadgenResult{}, err
	}
	httpSrv := &http.Server{Handler: serve.NewHandlerFor(backend)}
	go httpSrv.Serve(ln) //nolint:errcheck // closed via ln.Close at the end
	defer ln.Close()
	base := "http://" + ln.Addr().String()

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        cfg.Clients * 2,
		MaxIdleConnsPerHost: cfg.Clients * 2,
	}}

	if !cfg.Quiet {
		fmt.Printf("dataset: %d rules ×%d shard(s); %d clients for %s at %s\n",
			cfg.Rules, shards, cfg.Clients, cfg.Duration, base)
	}

	// Memory column: heap and event-space size before vs. after the run.
	// With -churn and -ctxprob < 1 every session update declares fresh
	// basic events, so a flat events count here is the observable proof
	// that retirement keeps the space bounded under churn.
	runtime.GC()
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	eventsBefore := backend.Stats().Events

	var (
		totalRanks atomic.Int64
		shedCount  atomic.Int64
		errCount   atomic.Int64
		firstErr   atomic.Value
	)
	started := time.Now()
	deadline := started.Add(cfg.Duration)

	// Optional background mutator: asserts fresh watched-tuples through the
	// write path so the run exercises epoch invalidation under load — and,
	// under sharding, the cross-shard broadcast path.
	stopMut := make(chan struct{})
	var mutWG sync.WaitGroup
	if cfg.AssertEvery > 0 {
		mutWG.Add(1)
		go func() {
			defer mutWG.Done()
			tick := time.NewTicker(cfg.AssertEvery)
			defer tick.Stop()
			for i := 0; ; i++ {
				select {
				case <-stopMut:
					return
				case <-tick.C:
					body := fmt.Sprintf(
						`{"roles":[{"role":"watched","src":"person%04d","dst":"tv%03d","prob":0.9}]}`,
						i%cfg.Spec.Persons, i%cfg.Spec.Programs)
					resp, err := client.Post(base+"/v1/assert", "application/json", bytes.NewBufferString(body))
					if err != nil {
						record(&errCount, &firstErr, fmt.Errorf("assert: %w", err))
						return
					}
					io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for connection reuse
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						record(&errCount, &firstErr, fmt.Errorf("assert: %s", resp.Status))
						return
					}
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			user := fmt.Sprintf("person%04d", c%cfg.Spec.Persons)
			phase := 0
			setCtx := func() bool {
				// Each client holds a membership (certain by default,
				// uncertain with -ctxprob < 1) in a rotating subset of the
				// bench context concepts.
				var ms []string
				for i := 0; i < cfg.Rules; i++ {
					if (i+phase)%2 == 0 {
						ms = append(ms, fmt.Sprintf(`{"concept":%q,"prob":%g}`, workload.BenchContextConcept(i), cfg.CtxProb))
					}
				}
				body := fmt.Sprintf(`{"measurements":[%s]}`, strings.Join(ms, ","))
				req, _ := http.NewRequest(http.MethodPut, base+"/v1/sessions/"+user+"/context", bytes.NewBufferString(body))
				resp, err := client.Do(req)
				if err != nil {
					record(&errCount, &firstErr, err)
					return false
				}
				retryAfter := retryAfterDelay(resp, 50*time.Millisecond)
				io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for connection reuse
				resp.Body.Close()
				if resp.StatusCode == http.StatusTooManyRequests {
					// Shed, not broken: count it separately, honor the
					// retry hint, and let the next churn point try again.
					shedCount.Add(1)
					time.Sleep(retryAfter)
					return true
				}
				if resp.StatusCode != http.StatusOK {
					record(&errCount, &firstErr, fmt.Errorf("session update: %s", resp.Status))
					return false
				}
				return true
			}
			if !setCtx() {
				return
			}
			rankBody := []byte(fmt.Sprintf(`{"user":%q,"target":"TvProgram","limit":10}`, user))
			n := 0
			for time.Now().Before(deadline) {
				resp, err := client.Post(base+"/v1/rank", "application/json", bytes.NewBuffer(rankBody))
				if err != nil {
					record(&errCount, &firstErr, err)
					return
				}
				if resp.StatusCode == http.StatusTooManyRequests {
					retryAfter := retryAfterDelay(resp, 50*time.Millisecond)
					io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for connection reuse
					resp.Body.Close()
					shedCount.Add(1)
					time.Sleep(retryAfter)
					continue
				}
				if resp.StatusCode != http.StatusOK {
					resp.Body.Close()
					record(&errCount, &firstErr, fmt.Errorf("rank: %s", resp.Status))
					return
				}
				// Drain so the connection is reused.
				var rr struct {
					Results []struct {
						ID string `json:"id"`
					} `json:"results"`
				}
				err = json.NewDecoder(resp.Body).Decode(&rr)
				resp.Body.Close()
				if err != nil {
					record(&errCount, &firstErr, err)
					return
				}
				totalRanks.Add(1)
				n++
				if cfg.Churn > 0 && n%cfg.Churn == 0 {
					phase++
					if !setCtx() {
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(started)
	close(stopMut)
	mutWG.Wait()

	st := backend.Stats()
	ranks := totalRanks.Load()
	out := loadgenResult{
		Shards:    shards,
		Ranks:     ranks,
		Shed:      shedCount.Load(),
		Elapsed:   elapsed,
		ReqPerSec: float64(ranks) / elapsed.Seconds(),
		Stats:     st,
	}
	if !cfg.Quiet {
		fmt.Printf("ranks: %d in %.2fs → %.0f req/s across %d clients\n",
			ranks, elapsed.Seconds(), out.ReqPerSec, cfg.Clients)
		if out.Shed > 0 {
			fmt.Printf("shed: %d requests answered 429 (admission control; not counted as errors)\n", out.Shed)
		}
		fmt.Printf("cache: %s\n", st.Cache)
		fmt.Printf("latency: mean %.0fµs p50 %.0fµs p95 %.0fµs p99 %.0fµs (server-side; %d observations, percentiles over last %d)\n",
			st.Latency.MeanMicros, st.Latency.P50Micros, st.Latency.P95Micros, st.Latency.P99Micros,
			st.Latency.Count, st.Latency.Window)
		fmt.Printf("epoch: %d, sessions: %d\n", st.Epoch, st.Sessions)
		if st.Broadcast != nil && st.Broadcast.Writes > 0 {
			fmt.Printf("broadcast: %d cross-shard writes, mean %.0fµs, max %.0fµs (slowest shard per write)\n",
				st.Broadcast.Writes, st.Broadcast.MeanMicros, st.Broadcast.MaxMicros)
		}
		if j := st.Journal; j != nil && j.Appends > 0 {
			fmt.Printf("journal: %d appends in %d group commits (%.1f records/fsync), %d compactions, %d live / %d total records, %.1f KB\n",
				j.Appends, j.Batches, float64(j.Appends)/float64(j.Batches),
				j.Compactions, j.LiveRecords, j.TotalRecords, float64(j.Bytes)/1024)
		}
		runtime.GC()
		var memAfter runtime.MemStats
		runtime.ReadMemStats(&memAfter)
		fmt.Printf("memory: heap %.1f → %.1f MB; event space %d → %d basics (ctxprob %g; bounded = retirement works)\n",
			float64(memBefore.HeapAlloc)/(1<<20), float64(memAfter.HeapAlloc)/(1<<20),
			eventsBefore, st.Events, cfg.CtxProb)
	}
	if n := errCount.Load(); n > 0 {
		return out, fmt.Errorf("%d client errors, first: %v", n, firstErr.Load())
	}
	return out, nil
}

// runServeShardCurve runs the load generator once per shard count and
// prints the scaling curve: aggregate rank throughput, speedup over one
// shard, worst-shard p95 and the cross-shard-broadcast latency column.
// The workload is mixed apply+rank — every client rotates its session
// context every cfg.Churn ranks (defaulted below), and the background
// mutator broadcasts an assertion every cfg.AssertEvery (defaulted below)
// — because a pure cached-rank workload would hide exactly the lock
// contention sharding removes.
func runServeShardCurve(cfg loadgenConfig, counts []int) error {
	// The curve always runs on the serving-contention dataset: many
	// persons (sessions — the work sharding shrinks), small catalog
	// (cheap individual ranks). See workload.ServeSpec.
	cfg.Spec = workload.ServeSpec()
	if cfg.Churn <= 0 {
		cfg.Churn = 2
	}
	if cfg.AssertEvery <= 0 {
		// Broadcast writes bump every shard's epoch, and the recompute
		// storm after a bump is per-rank work sharding cannot shrink: a
		// too-frequent mutator measures the ranker, not the serving
		// layer. A couple of writes per run keeps the broadcast-latency
		// column populated without drowning the apply signal.
		cfg.AssertEvery = 2 * time.Second
	}
	cfg.Quiet = true
	fmt.Printf("mixed workload: %d clients over %d persons, session churn every %d ranks, broadcast assert every %s, %s per point\n",
		cfg.Clients, cfg.Spec.Persons, cfg.Churn, cfg.AssertEvery, cfg.Duration)
	fmt.Printf("%-7s %10s %12s %9s %12s %12s %14s\n",
		"shards", "ranks", "req/s", "speedup", "p95(µs)", "epoch", "broadcast(µs)")
	var base float64
	results := make([]loadgenResult, 0, len(counts))
	for _, n := range counts {
		c := cfg
		c.Shards = n
		res, err := runServeLoadgen(c)
		if err != nil {
			return fmt.Errorf("shards=%d: %w", n, err)
		}
		results = append(results, res)
		if base == 0 {
			base = res.ReqPerSec
		}
		bcast := "-"
		if b := res.Stats.Broadcast; b != nil && b.Writes > 0 {
			bcast = fmt.Sprintf("%.0f", b.MeanMicros)
		}
		fmt.Printf("%-7d %10d %12.0f %8.2fx %12.0f %12d %14s\n",
			n, res.Ranks, res.ReqPerSec, res.ReqPerSec/base,
			res.Stats.Latency.P95Micros, res.Stats.Epoch, bcast)
	}
	if len(results) > 1 {
		last := results[len(results)-1]
		fmt.Printf("scaling: %d shards serve %.2fx the aggregate rank throughput of 1 shard\n",
			last.Shards, last.ReqPerSec/base)
	}
	return nil
}

func record(count *atomic.Int64, first *atomic.Value, err error) {
	if count.Add(1) == 1 {
		first.Store(err)
	}
}
