package main

// Load generation against `openbi serve` over loopback HTTP. One benchmark
// process drives at most nproc advise connections, each owned by one
// goroutine.
//
// Open-loop accounting. A request is due at a scheduled time. time.Sleep on
// the reference machine (Linux, 2 vCPU Xeon) wakes about 1 ms late for any
// sleep under ~0.5 ms and 0.1–0.3 ms late for longer ones (timer slack), so
// a pacer that charges latency from the due time blames the server for the
// generator's own oversleep. Here:
//   - if the connection was idle at the due time, the generator sleeps until
//     then, and the wake-up overshoot is reported as gen.lateness_* but not
//     charged: latency runs from the wake-up;
//   - if the connection was still busy at the due time, the request waits
//     for it, and that wait is charged: latency runs from the due time and
//     the wait is reported as gen.conn_wait_*.
// openbi's internal/loadgen pacer still charges the oversleep; fixing it is
// outside the benchmark.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"openbi/internal/kb"
)

// client owns exactly one keep-alive connection to the server.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends one request and reads the whole reply. A non-2xx status is an
// error.
func (c *client) post(path string, body []byte) ([]byte, http.Header, error) {
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, nil, fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(data))
	}
	return data, resp.Header, nil
}

func (c *client) getJSON(path string, v any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// accountOpenLoop splits one open-loop request's timeline into the latency
// charged to the server, the generator's wake-up lateness and the time the
// request waited for its busy connection. sent is when the request went
// out: the wake-up from sleep when the connection was idle at due, or the
// moment the connection freed up when it was busy.
func accountOpenLoop(due, sent, done time.Time, idleAtDue bool) (charged, lateness, connWait time.Duration) {
	if idleAtDue {
		return done.Sub(sent), sent.Sub(due), 0
	}
	return done.Sub(due), 0, sent.Sub(due)
}

// loadStats collects one client's measurements.
type loadStats struct {
	lat       []float64 // charged latency, seconds; +Inf for a failed request
	hitLat    []float64 // successful requests the cache answered
	missLat   []float64
	lateness  []float64 // requests whose connection was idle at due
	connWait  []float64 // every sent request; 0 when the connection was idle
	waitAt    []float64 // due time in seconds since level start, parallel to connWait
	attempted int
	failed    int
	abandoned int // due in the level but never sent before it closed
	problems  []string
}

func (s *loadStats) merge(o *loadStats) {
	s.lat = append(s.lat, o.lat...)
	s.hitLat = append(s.hitLat, o.hitLat...)
	s.missLat = append(s.missLat, o.missLat...)
	s.lateness = append(s.lateness, o.lateness...)
	s.connWait = append(s.connWait, o.connWait...)
	s.waitAt = append(s.waitAt, o.waitAt...)
	s.attempted += o.attempted
	s.failed += o.failed
	s.abandoned += o.abandoned
	s.problems = appendProblems(s.problems, o.problems...)
}

// checkEvery is how often (in requests per connection) a reply is compared
// with the advice computed in-process from the same kb.json.
const checkEvery = 50

// adviseLoad drives advise traffic and verifies sampled replies.
type adviseLoad struct {
	clients []*client
	snap    *kb.Snapshot
}

// send issues one advise request, records its outcome and checks every
// checkEvery-th reply. It returns the time the reply was read.
func (l *adviseLoad) send(c *client, req adviseReq, n int, st *loadStats) (time.Time, bool, error) {
	st.attempted++
	body, hdr, err := c.post("/v1/advise", req.body)
	done := time.Now()
	if err == nil && n%checkEvery == 0 {
		err = checkAdvice(l.snap, req.sev, body)
	}
	if err != nil {
		st.failed++
		st.problems = appendProblems(st.problems, err.Error())
		return done, false, err
	}
	return done, hdr.Get("X-OpenBI-Cache") == "hit", nil
}

func (st *loadStats) observe(lat time.Duration, ok, hit bool) {
	if !ok {
		st.lat = append(st.lat, math.Inf(1))
		return
	}
	st.lat = append(st.lat, lat.Seconds())
	if hit {
		st.hitLat = append(st.hitLat, lat.Seconds())
	} else {
		st.missLat = append(st.missLat, lat.Seconds())
	}
}

// closedLoop has every client send its next request as soon as the previous
// reply arrived, until the deadline.
func (l *adviseLoad) closedLoop(until time.Time, gens []reqGen) *loadStats {
	return l.fanOut(func(w int, c *client, st *loadStats) {
		for n := 0; time.Now().Before(until); n++ {
			req := gens[w]()
			sent := time.Now()
			done, hit, err := l.send(c, req, n, st)
			st.observe(done.Sub(sent), err == nil, hit)
		}
	})
}

// openLoop offers rps requests per second for d as Poisson arrivals split
// evenly over the clients. Requests still unsent when the level closes are
// abandoned, so an overloaded level finishes on time and shows up as
// completions short of the offered count.
func (l *adviseLoad) openLoop(rps float64, d time.Duration, seed int64, level int, gens []reqGen) *loadStats {
	start := time.Now()
	end := start.Add(d)
	perConn := rps / float64(len(l.clients))
	return l.fanOut(func(w int, c *client, st *loadStats) {
		arrivals := rng(seed, streamArrivals+uint64(level*16+w))
		due := start
		for n := 0; ; n++ {
			due = due.Add(time.Duration(arrivals.ExpFloat64() / perConn * float64(time.Second)))
			if !due.Before(end) {
				return
			}
			req := gens[w]()
			idle := time.Now().Before(due)
			if idle {
				time.Sleep(time.Until(due))
			} else if !time.Now().Before(end) {
				st.abandoned++
				continue
			}
			sent := time.Now()
			done, hit, err := l.send(c, req, n, st)
			charged, late, wait := accountOpenLoop(due, sent, done, idle)
			st.observe(charged, err == nil, hit)
			if idle {
				st.lateness = append(st.lateness, late.Seconds())
			}
			st.connWait = append(st.connWait, wait.Seconds())
			st.waitAt = append(st.waitAt, due.Sub(start).Seconds())
		}
	})
}

// fanOut runs fn once per client, each on its own goroutine, and merges
// their stats once all have returned.
func (l *adviseLoad) fanOut(fn func(w int, c *client, st *loadStats)) *loadStats {
	per := make([]loadStats, len(l.clients))
	var wg sync.WaitGroup
	for w, c := range l.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w, c, &per[w])
		}()
	}
	wg.Wait()
	total := &loadStats{}
	for i := range per {
		total.merge(&per[i])
	}
	return total
}

// adviceReply is the part of an advise reply the correctness check reads.
type adviceReply struct {
	Advice struct {
		Ranked []struct {
			Algorithm      string  `json:"algorithm"`
			PredictedKappa float64 `json:"predictedKappa"`
		} `json:"ranked"`
	} `json:"advice"`
}

// checkAdvice compares a reply with kb.Snapshot.AdviseSeverities on the
// same knowledge base: the same ranking and equal predicted kappas.
func checkAdvice(snap *kb.Snapshot, sev []float64, body []byte) error {
	var got adviceReply
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("advise reply: %w", err)
	}
	want, err := snap.AdviseSeverities(sev)
	if err != nil {
		return err
	}
	if len(got.Advice.Ranked) != len(want.Ranked) {
		return fmt.Errorf("advise %v: %d ranked algorithms, want %d", sev, len(got.Advice.Ranked), len(want.Ranked))
	}
	for i, r := range want.Ranked {
		g := got.Advice.Ranked[i]
		if g.Algorithm != r.Algorithm || g.PredictedKappa != r.PredictedKappa {
			return fmt.Errorf("advise %v: rank %d is %s (kappa %v), want %s (kappa %v)",
				sev, i+1, g.Algorithm, g.PredictedKappa, r.Algorithm, r.PredictedKappa)
		}
	}
	return nil
}

// appendProblems keeps the first few failure messages.
func appendProblems(list []string, msgs ...string) []string {
	for _, m := range msgs {
		if len(list) >= 10 {
			return list
		}
		list = append(list, m)
	}
	return list
}
