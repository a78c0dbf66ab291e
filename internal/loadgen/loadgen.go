// Package loadgen is the closed-loop load-generation harness for the
// openbi serve HTTP advice service: it drives POST /v1/advise with
// recorded data-quality profile mixes, records per-request latency into
// log-bucketed histograms (internal/hist — the same representation the
// server exports through GET /v1/metrics, so the two sides' p99s are
// directly comparable), and reports p50/p99/p999, throughput, and
// error/shed rates. A saturation sweep (sweep.go) steps offered load
// until the p99 budget blows and locates the knee of the curve.
//
// Two pacing modes:
//
//   - Closed loop (RPS == 0): each of Concurrency workers issues its next
//     request the moment the previous response lands. Offered load adapts
//     to the server — this measures capacity.
//   - Open loop (RPS > 0): requests fire on a fixed schedule regardless
//     of response times. A request sent late because its worker was still
//     busy is measured from the SCHEDULED send time, so queueing delay the
//     client would have hidden by waiting (coordinated omission) is
//     charged to the server. A worker that was idle and slept until its
//     slot is measured from the actual send; its timer's wake-up lateness
//     is the generator's and is reported on its own. This measures
//     behavior at a fixed offered load — the mode the saturation sweep
//     uses.
//
// Deliberately dependency-lean: loadgen imports net/http, stdlib, and
// internal/hist only — never the server, engine, or table packages — so
// the harness can ship as its own lean binary and drive any openbi serve
// over the wire (the gert separate-binaries distribution model). All
// randomness is seeded: the same Spec reproduces the same request
// sequence byte for byte.
package loadgen

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"openbi/internal/hist"
)

// Spec describes one load-generation run against a live server.
type Spec struct {
	// Target is the server's base URL (e.g. http://127.0.0.1:8080).
	Target string
	// Mix is the workload: a weighted set of recorded profile archetypes
	// (see ParseMix). The zero Mix defaults to the "recorded" mix.
	Mix Mix
	// Concurrency is the number of parallel connections (default 8).
	Concurrency int
	// Duration is the measured phase (default 10s).
	Duration time.Duration
	// Warmup runs before measurement starts; its requests hit the server
	// but are excluded from every statistic (default 1s).
	Warmup time.Duration
	// RPS is the offered load for open-loop pacing, shared across all
	// workers; 0 selects closed-loop pacing.
	RPS float64
	// Timeout bounds one request (default 5s).
	Timeout time.Duration
	// Seed makes the severity-vector sequence deterministic (default 1).
	Seed int64
	// Dim is the severity-vector length, dq.AllCriteria order (default 7
	// — the paper's criteria set; kept as data so the harness needs no
	// dq import).
	Dim int
	// Recorder, when non-nil, captures measured-phase request/response
	// pairs as JSONL (see NewRecorder).
	Recorder *Recorder
	// Client overrides the HTTP client (tests); by default Run builds
	// one with an idle-connection pool sized to Concurrency.
	Client *http.Client
}

func (s Spec) withDefaults() (Spec, error) {
	if s.Target == "" {
		return s, errors.New("loadgen: Spec.Target is required")
	}
	if s.Concurrency <= 0 {
		s.Concurrency = 8
	}
	if s.Duration <= 0 {
		s.Duration = 10 * time.Second
	}
	if s.Warmup < 0 {
		s.Warmup = 0
	}
	if s.Timeout <= 0 {
		s.Timeout = 5 * time.Second
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Dim <= 0 {
		s.Dim = DefaultDim
	}
	if s.Mix.name == "" {
		s.Mix = MustMix("recorded")
	}
	if s.RPS < 0 {
		return s, fmt.Errorf("loadgen: negative RPS %v", s.RPS)
	}
	return s, nil
}

// Result is one run's measured-phase statistics.
type Result struct {
	Mix         string
	Concurrency int
	OfferedRPS  float64 // 0 = closed loop
	// Duration is the observed measured window — the nominal spec duration
	// on a full run, shorter when the context cancelled the run early. All
	// rate denominators below use it, so partial runs report true rates.
	Duration time.Duration

	Requests  int64 // measured-phase requests with any outcome
	StatusOK  int64 // 2xx
	Shed      int64 // 429 (admission control)
	Client4xx int64 // other 4xx
	Server5xx int64
	Errors    int64 // transport failures / timeouts

	Throughput float64 // 2xx per second of measured wall time
	ErrorRate  float64 // (transport + 5xx) / requests
	ShedRate   float64 // 429 / requests

	Hist                *hist.Histogram
	P50, P99, P999, Max time.Duration

	// WakeLateP50 and WakeLateP99 are quantiles of the open-loop
	// generator's own lateness: how far past its slot a worker that slept
	// until the slot actually sent. It is not charged to the server. Zero
	// in closed loop.
	WakeLateP50, WakeLateP99 time.Duration
}

// workerStats accumulates one worker's measured-phase outcomes; merged
// after the run so the hot loop never shares a cache line.
type workerStats struct {
	hist, late                                *hist.Histogram
	requests, ok, shed, c4xx, s5xx, transport int64
}

// Run executes one load-generation run and returns its report. The
// context cancels the run early (partial statistics are still returned
// with an error only when nothing completed).
func Run(ctx context.Context, spec Spec) (*Result, error) {
	spec, err := spec.withDefaults()
	if err != nil {
		return nil, err
	}
	client := spec.Client
	if client == nil {
		client = &http.Client{
			Timeout: spec.Timeout,
			Transport: &http.Transport{
				MaxIdleConns:        2 * spec.Concurrency,
				MaxIdleConnsPerHost: 2 * spec.Concurrency,
			},
		}
	}
	url := spec.Target + "/v1/advise"

	start := time.Now()
	measureFrom := start.Add(spec.Warmup)
	deadline := measureFrom.Add(spec.Duration)
	runCtx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()

	stats := make([]workerStats, spec.Concurrency)
	var wg sync.WaitGroup
	for w := 0; w < spec.Concurrency; w++ {
		wg.Add(1)
		st := &stats[w]
		st.hist, st.late = hist.New(), hist.New()
		// Distinct, deterministic per-worker streams: the golden-ratio
		// increment keeps adjacent worker seeds far apart in seed space.
		rng := rand.New(rand.NewSource(int64(uint64(spec.Seed) + uint64(w)*0x9E3779B97F4A7C15)))
		pc := newPacer(start, spec.RPS, w, spec.Concurrency)
		go func() {
			defer wg.Done()
			runWorker(runCtx, spec, client, url, rng, pc, st, measureFrom, deadline)
		}()
	}
	wg.Wait()

	// The measured window is what was actually observed: up to the nominal
	// deadline on a full run, to the moment the workers stopped on an early
	// cancel. Using nominal spec.Duration here would understate throughput
	// on partial runs and flip the sweep's `sustained` predicate.
	end := time.Now()
	if end.After(deadline) {
		end = deadline
	}
	observed := end.Sub(measureFrom)
	if observed < 0 {
		observed = 0 // cancelled during warmup; no requests were booked
	}

	res := &Result{
		Mix:         spec.Mix.name,
		Concurrency: spec.Concurrency,
		OfferedRPS:  spec.RPS,
		Duration:    observed,
		Hist:        hist.New(),
	}
	late := hist.New()
	for i := range stats {
		st := &stats[i]
		res.Hist.Merge(st.hist)
		late.Merge(st.late)
		res.Requests += st.requests
		res.StatusOK += st.ok
		res.Shed += st.shed
		res.Client4xx += st.c4xx
		res.Server5xx += st.s5xx
		res.Errors += st.transport
	}
	if res.Requests == 0 {
		return res, fmt.Errorf("loadgen: no requests completed in the measured phase (target %s)", spec.Target)
	}
	secs := observed.Seconds()
	if secs <= 0 {
		// Requests were booked, so the window is positive but below clock
		// resolution; bound it away from a divide-by-zero.
		secs = float64(time.Millisecond) / float64(time.Second)
	}
	res.Throughput = float64(res.StatusOK) / secs
	res.ErrorRate = float64(res.Errors+res.Server5xx) / float64(res.Requests)
	res.ShedRate = float64(res.Shed) / float64(res.Requests)
	qs := res.Hist.Quantiles(0.5, 0.99, 0.999)
	res.P50, res.P99, res.P999, res.Max = qs[0], qs[1], qs[2], res.Hist.Max()
	if late.Count() > 0 {
		lq := late.Quantiles(0.5, 0.99)
		res.WakeLateP50, res.WakeLateP99 = lq[0], lq[1]
	}
	return res, nil
}

// runWorker is one connection's request loop. Closed loop: back-to-back.
// Open loop: fire at the pacer's schedule and charge latency as
// chargeOpenLoop says.
func runWorker(ctx context.Context, spec Spec, client *http.Client, url string,
	rng *rand.Rand, pc *pacer, st *workerStats, measureFrom, deadline time.Time) {
	var bodyBuf bytes.Buffer
	for {
		sentAt := time.Now()
		if sentAt.After(deadline) || ctx.Err() != nil {
			return
		}
		scheduled, slept := sentAt, false
		if pc != nil {
			var ok bool
			scheduled, slept, ok = pc.waitNext(ctx, deadline)
			if !ok {
				return
			}
			sentAt = time.Now()
		}
		severities := spec.Mix.Sample(rng, spec.Dim)
		reqBody := adviseBody(&bodyBuf, severities)

		status, respBody, err := doRequest(ctx, client, url, reqBody, spec.Recorder != nil)
		done := time.Now()
		lat, lateness := chargeOpenLoop(scheduled, sentAt, done, slept)

		if done.Before(measureFrom) || done.After(deadline) {
			continue // warmup or overrun: hit the server, skip the books
		}
		st.requests++
		st.hist.Observe(lat)
		if slept {
			st.late.Observe(lateness)
		}
		switch {
		case err != nil:
			st.transport++
		case status >= 200 && status < 300:
			st.ok++
		case status == http.StatusTooManyRequests:
			st.shed++
		case status >= 500:
			st.s5xx++
		default:
			st.c4xx++
		}
		if spec.Recorder != nil && err == nil {
			spec.Recorder.Record(spec.RPS, status, lat, reqBody, respBody)
		}
	}
}

// doRequest POSTs one advise body. The response body is always drained
// (connection reuse); its bytes are only retained when the caller records.
func doRequest(ctx context.Context, client *http.Client, url string, body []byte, keep bool) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if keep {
		b, err := io.ReadAll(resp.Body)
		return resp.StatusCode, b, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil, err
}
