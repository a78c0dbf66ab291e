package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"openbi/internal/core"
	"openbi/internal/dq"
	"openbi/internal/kb"
	"openbi/internal/provenance"
	"openbi/internal/server"
)

// adviseRun is one serial replay of advise traffic through an in-process
// server.
type adviseRun struct {
	next        reqGen
	until       time.Time     // zero: no deadline
	maxRequests int           // 0: no cap
	reloadEvery time.Duration // 0: no reloads
}

// adviseOp replays requests one at a time through
// server.New(engine, server.WithKBPath(kbPath)).ServeHTTP — the server's
// own defaults, as `openbi serve` uses its flags' defaults — and beside
// every cache miss calls the layers a miss passes through directly: the
// request decode, kb.Snapshot.AdviseSeverities and the reply marshal. What
// a miss spends beyond those three is the batcher's wait. With reloadEvery
// set it also reloads the KB on that period, timing the reload's stages
// directly and through POST /v1/kb/reload. It returns the metrics and the
// number of requests served.
func adviseOp(tr *tracer, kbPath string, run adviseRun) (opMetrics, int, error) {
	m := opMetrics{}
	doc, err := os.ReadFile(kbPath)
	if err != nil {
		return m, 0, err
	}
	eng, err := core.New()
	if err != nil {
		return m, 0, err
	}
	if err := eng.LoadKB(bytes.NewReader(doc)); err != nil {
		return m, 0, err
	}
	srv, err := server.New(eng, server.WithKBPath(kbPath))
	if err != nil {
		return m, 0, err
	}
	defer srv.Close()
	before := srv.Metrics()

	var hit, miss, decode, advise, marshal []float64
	var load, verify, snapshot, reload []float64
	lastReload := time.Now()
	n := 0
	for ; (run.maxRequests == 0 || n < run.maxRequests) && (run.until.IsZero() || time.Now().Before(run.until)); n++ {
		if run.reloadEvery > 0 && time.Since(lastReload) >= run.reloadEvery {
			lastReload = time.Now()
			d, err := reloadStages(tr, srv, kbPath)
			if err != nil {
				return m, n, err
			}
			load, verify, snapshot, reload = append(load, d[0]), append(verify, d[1]), append(snapshot, d[2]), append(reload, d[3])
		}
		req := run.next()
		rec := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/v1/advise", bytes.NewReader(req.body))
		ref := tr.begin("server.servehttp")
		srv.ServeHTTP(rec, r)
		d := tr.finish(ref).Seconds() * 1e6
		if rec.Code != http.StatusOK {
			return m, n, fmt.Errorf("in-process advise: status %d: %s", rec.Code, rec.Body.Bytes())
		}
		if n%checkEvery == 0 {
			if err := checkAdvice(eng.KB(), req.sev, rec.Body.Bytes()); err != nil {
				return m, n, err
			}
		}
		if rec.Header().Get("X-OpenBI-Cache") == "hit" {
			tr.rename(ref, "server.servehttp_hit")
			hit = append(hit, d)
			continue
		}
		tr.rename(ref, "server.servehttp_miss")
		miss = append(miss, d)
		stages, err := missStages(tr, eng.KB(), req.body)
		if err != nil {
			return m, n, err
		}
		decode, advise, marshal = append(decode, stages[0]), append(advise, stages[1]), append(marshal, stages[2])
	}
	after := srv.Metrics()

	if len(hit) > 0 {
		m.set("server.servehttp_hit_us", "us", median(hit))
	}
	if len(miss) > 0 {
		missP50, dec, adv, mar := median(miss), median(decode), median(advise), median(marshal)
		m.set("server.servehttp_miss_us", "us", missP50)
		m.set("server.decode_us", "us", dec)
		m.set("kb.advise_us", "us", adv)
		m.set("server.marshal_us", "us", mar)
		m.set("server.batch_wait_us", "us", missP50-dec-adv-mar)
		m.set("server.stage_coverage", "ratio", (dec+adv+mar)/missP50)
	}
	if len(reload) > 0 {
		m.set("kb.load_ms", "ms", median(load))
		m.set("provenance.verify_ms", "ms", median(verify))
		m.set("kb.snapshot_ms", "ms", median(snapshot))
		m.set("server.reload_ms", "ms", median(reload))
	}
	if lookups := after.CacheHits - before.CacheHits + after.CacheMisses - before.CacheMisses; lookups > 0 {
		m.set("server.cache_hit_ratio", "ratio", float64(after.CacheHits-before.CacheHits)/float64(lookups))
	}
	if advises := after.Advises - before.Advises; advises > 0 {
		m.set("server.cache_evictions_per_req", "ratio", float64(after.CacheEvictions-before.CacheEvictions)/float64(advises))
	}
	return m, n, nil
}

// wireRequest and wireReply mirror the server's advise request and reply
// bodies, so the decode and marshal a miss pays can be timed on their own.
type wireRequest struct {
	Severities []float64          `json:"severities"`
	Profile    map[string]float64 `json:"profile"`
}

type wireReply struct {
	Advice kb.Advice `json:"advice"`
	KB     struct {
		Generation uint64    `json:"generation"`
		Records    int       `json:"records"`
		LoadedAt   time.Time `json:"loadedAt"`
		Source     string    `json:"source"`
	} `json:"kb"`
}

// missStages times the three layers a cache miss passes through, in µs:
// decoding and validating the body, scoring it against the snapshot, and
// marshalling the reply.
func missStages(tr *tracer, snap *kb.Snapshot, body []byte) ([3]float64, error) {
	var out [3]float64
	var sev []float64
	d, err := tr.time("server.decode", func() error {
		var req wireRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return err
		}
		sev = make([]float64, len(dq.AllCriteria()))
		copy(sev, req.Severities)
		for name, v := range req.Profile {
			c, err := dq.ParseCriterion(name)
			if err != nil {
				return err
			}
			sev[c] = v
		}
		for _, v := range sev {
			if math.IsNaN(v) || v < 0 || v > 1 {
				return errors.New("severity out of range")
			}
		}
		return nil
	})
	if err != nil {
		return out, err
	}
	out[0] = d.Seconds() * 1e6
	var reply wireReply
	d, err = tr.time("kb.advise", func() (err error) {
		reply.Advice, err = snap.AdviseSeverities(sev)
		return err
	})
	if err != nil {
		return out, err
	}
	out[1] = d.Seconds() * 1e6
	reply.KB.Records, reply.KB.LoadedAt, reply.KB.Source = snap.Len(), time.Now(), "engine"
	d, err = tr.time("server.marshal", func() error {
		_, err := json.Marshal(reply)
		return err
	})
	out[2] = d.Seconds() * 1e6
	return out, err
}

// reloadStages times, in ms, what a KB reload does — read and parse the KB,
// load and verify its manifest, build the snapshot — and then the whole
// reload through POST /v1/kb/reload.
func reloadStages(tr *tracer, srv *server.Server, kbPath string) ([4]float64, error) {
	var out [4]float64
	var doc []byte
	var base *kb.KnowledgeBase
	steps := []struct {
		name string
		fn   func() error
	}{
		{"kb.load", func() (err error) {
			if doc, err = os.ReadFile(kbPath); err == nil {
				base, err = kb.Load(bytes.NewReader(doc))
			}
			return err
		}},
		{"provenance.verify", func() error {
			m, err := provenance.LoadFile(kbPath + ".manifest")
			if err != nil {
				return err
			}
			return kb.VerifyManifest(m, doc, base)
		}},
		{"kb.snapshot", func() error { base.Snapshot(); return nil }},
		{"server.reload", func() error {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/kb/reload", nil))
			if rec.Code != http.StatusOK {
				return fmt.Errorf("in-process reload: status %d: %s", rec.Code, rec.Body.Bytes())
			}
			return nil
		}},
	}
	for i, s := range steps {
		d, err := tr.time(s.name, s.fn)
		if err != nil {
			return out, err
		}
		out[i] = d.Seconds() * 1e3
	}
	return out, nil
}
