package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/daemon"
	"repro/internal/workload"
)

// overloadConfig parametrizes the overload/recovery experiment.
type overloadConfig struct {
	// Target is an already-running daemon's base URL (e.g. the CI smoke
	// boots carserved and points carbench at it). Empty boots an
	// in-process stack with the admission limits below.
	Target     string
	Preload    string // Spec as the in-process daemon's -preload: small or paper
	Spec       workload.Spec
	Rules      int
	Clients    int           // overload-phase concurrent clients
	LowClients int           // recovery-phase clients
	Duration   time.Duration // per phase
	Users      int           // distinct user IDs the clients share
	CacheSize  int

	// In-process admission limits (ignored with Target).
	RateLimit   float64
	MaxInFlight int
	MaxQueue    int
}

// phaseResult is one phase's client-side accounting.
type phaseResult struct {
	Total, OK, Shed, Errors int64
	RetryAfter              int64 // 429s that carried a Retry-After header
	Latencies               []time.Duration
	FirstErr                error
}

func (p *phaseResult) percentile(q float64) time.Duration {
	if len(p.Latencies) == 0 {
		return 0
	}
	sort.Slice(p.Latencies, func(i, j int) bool { return p.Latencies[i] < p.Latencies[j] })
	return p.Latencies[int(q*float64(len(p.Latencies)-1))]
}

// runOverloadLoadgen drives offered load past the admission limits and
// reports goodput, shed rate and admitted-request latency — then drops
// the load and shows the service recovering to 0% shed. The point being
// demonstrated: under 2–10x overload the daemon keeps serving admitted
// requests at in-SLO latency and answers the rest with 429 + Retry-After
// instead of queueing until collapse.
func runOverloadLoadgen(cfg overloadConfig) error {
	base := cfg.Target
	if base == "" {
		d, err := daemon.Start(daemon.Config{
			Preload:     cfg.Preload,
			Rules:       cfg.Rules,
			Cache:       cfg.CacheSize,
			Metrics:     true,
			RateLimit:   cfg.RateLimit,
			MaxInFlight: cfg.MaxInFlight,
			MaxQueue:    cfg.MaxQueue,
		})
		if err != nil {
			return err
		}
		defer d.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		go d.Serve(ln) //nolint:errcheck // ends with ErrServerClosed when d closes
		base = "http://" + ln.Addr().String()
		fmt.Printf("in-process daemon at %s (ratelimit=%g/s/user maxinflight=%d maxqueue=%d)\n",
			base, cfg.RateLimit, cfg.MaxInFlight, cfg.MaxQueue)
	} else {
		fmt.Printf("driving external daemon at %s\n", base)
	}

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        cfg.Clients * 2,
		MaxIdleConnsPerHost: cfg.Clients * 2,
	}}

	users := make([]string, cfg.Users)
	for i := range users {
		users[i] = fmt.Sprintf("person%04d", i%cfg.Spec.Persons)
	}
	if err := ensureSessions(client, base, users); err != nil {
		return err
	}

	fmt.Printf("phase 1: OVERLOAD — %d clients hammering %d users' rank endpoint for %s\n",
		cfg.Clients, len(users), cfg.Duration)
	over := drivePhase(client, base, users, cfg.Clients, cfg.Duration, 0)

	// Let per-user buckets refill so recovery measures steady-state
	// behavior, not the tail of the overload burst.
	time.Sleep(1200 * time.Millisecond)

	// Recovery offered load: a few clients paced well below any sane
	// admission limit.
	pace := 100 * time.Millisecond
	fmt.Printf("phase 2: RECOVERY — %d clients paced at 1 req/%s for %s\n",
		cfg.LowClients, pace, cfg.Duration)
	rec := drivePhase(client, base, users, cfg.LowClients, cfg.Duration, pace)

	fmt.Printf("%-10s %10s %10s %10s %8s %12s %10s %10s\n",
		"phase", "total", "admitted", "shed", "errors", "goodput/s", "p50(ms)", "p99(ms)")
	for _, row := range []struct {
		name string
		res  *phaseResult
	}{{"overload", &over}, {"recovery", &rec}} {
		fmt.Printf("%-10s %10d %10d %10d %8d %12.0f %10.2f %10.2f\n",
			row.name, row.res.Total, row.res.OK, row.res.Shed, row.res.Errors,
			float64(row.res.OK)/cfg.Duration.Seconds(),
			float64(row.res.percentile(0.50))/1e6, float64(row.res.percentile(0.99))/1e6)
	}
	shedPct := 0.0
	if over.Total > 0 {
		shedPct = float64(over.Shed) / float64(over.Total) * 100
	}
	fmt.Printf("overload shed rate: %.1f%% (%d/%d 429s carried Retry-After); recovery shed rate: %.2f%%\n",
		shedPct, over.RetryAfter, over.Shed, float64(rec.Shed)/float64(max(rec.Total, 1))*100)

	// Machine-readable lines for the CI smoke (scripts/smoke_overload.sh).
	for _, row := range []struct {
		name    string
		clients int
		res     *phaseResult
	}{{"overload", cfg.Clients, &over}, {"recovery", cfg.LowClients, &rec}} {
		fmt.Printf("OVERLOAD phase=%s clients=%d total=%d ok=%d shed=%d retry_after=%d errors=%d goodput_rps=%.0f p50_ms=%.3f p99_ms=%.3f\n",
			row.name, row.clients, row.res.Total, row.res.OK, row.res.Shed, row.res.RetryAfter,
			row.res.Errors, float64(row.res.OK)/cfg.Duration.Seconds(),
			float64(row.res.percentile(0.50))/1e6, float64(row.res.percentile(0.99))/1e6)
	}

	if over.Errors > 0 || rec.Errors > 0 {
		return fmt.Errorf("%d overload / %d recovery non-shed errors, first: %v",
			over.Errors, rec.Errors, firstNonNil(over.FirstErr, rec.FirstErr))
	}
	if over.OK == 0 {
		return fmt.Errorf("overload phase admitted nothing — limits shed 100%% of load")
	}
	return nil
}

// ensureSessions sets a context for every user, retrying through the
// rate limiter (session PUTs are admission-controlled too).
func ensureSessions(client *http.Client, base string, users []string) error {
	body := `{"measurements":[{"concept":"BenchCtx0","prob":1}]}`
	for _, user := range users {
		var lastStatus string
		for attempt := 0; attempt < 20; attempt++ {
			req, err := http.NewRequest(http.MethodPut, base+"/v1/sessions/"+user+"/context", bytes.NewBufferString(body))
			if err != nil {
				return err
			}
			resp, err := client.Do(req)
			if err != nil {
				return fmt.Errorf("session for %s: %w", user, err)
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for connection reuse
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				lastStatus = ""
				break
			}
			lastStatus = resp.Status
			if resp.StatusCode != http.StatusTooManyRequests {
				return fmt.Errorf("session for %s: %s", user, resp.Status)
			}
			time.Sleep(retryAfterDelay(resp, 500*time.Millisecond))
		}
		if lastStatus != "" {
			return fmt.Errorf("session for %s still rate-limited after retries: %s", user, lastStatus)
		}
	}
	return nil
}

// drivePhase runs clients goroutines against /v1/rank for dur, pacing
// each request by pace (0 = as fast as possible), and aggregates the
// client-side accounting: 200s are goodput with their latency recorded,
// 429s are shed (Retry-After honored, capped so the generator keeps
// offering load), anything else is an error.
func drivePhase(client *http.Client, base string, users []string, clients int, dur time.Duration, pace time.Duration) phaseResult {
	var (
		mu  sync.Mutex
		agg phaseResult
		wg  sync.WaitGroup
	)
	deadline := time.Now().Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var local phaseResult
			for i := 0; time.Now().Before(deadline); i++ {
				user := users[(c+i)%len(users)]
				started := time.Now()
				resp, err := client.Post(base+"/v1/rank", "application/json",
					bytes.NewReader([]byte(`{"user":"`+user+`","target":"TvProgram","limit":3}`)))
				if err != nil {
					local.Errors++
					if local.FirstErr == nil {
						local.FirstErr = err
					}
					break
				}
				elapsed := time.Since(started)
				io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for connection reuse
				resp.Body.Close()
				local.Total++
				switch resp.StatusCode {
				case http.StatusOK:
					local.OK++
					local.Latencies = append(local.Latencies, elapsed)
				case http.StatusTooManyRequests:
					local.Shed++
					if resp.Header.Get("Retry-After") != "" {
						local.RetryAfter++
					}
					time.Sleep(retryAfterDelay(resp, 25*time.Millisecond))
				default:
					local.Errors++
					if local.FirstErr == nil {
						local.FirstErr = fmt.Errorf("rank for %s: %s", user, resp.Status)
					}
				}
				if pace > 0 {
					time.Sleep(pace)
				}
			}
			mu.Lock()
			agg.Total += local.Total
			agg.OK += local.OK
			agg.Shed += local.Shed
			agg.RetryAfter += local.RetryAfter
			agg.Errors += local.Errors
			agg.Latencies = append(agg.Latencies, local.Latencies...)
			if agg.FirstErr == nil {
				agg.FirstErr = local.FirstErr
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return agg
}

// retryAfterDelay reads a 429's Retry-After (whole seconds per the
// header spec), capped so a load generator honoring it keeps offering
// load instead of sleeping out the measurement window.
func retryAfterDelay(resp *http.Response, maxDelay time.Duration) time.Duration {
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 0 {
		return maxDelay
	}
	d := time.Duration(secs) * time.Second
	if d > maxDelay {
		return maxDelay
	}
	if d <= 0 {
		d = maxDelay
	}
	return d
}

func firstNonNil(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
