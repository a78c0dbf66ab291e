package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"openbi/internal/core"
	"openbi/internal/eval"
	"openbi/internal/kb"
)

// testKB builds a hand-crafted knowledge base over the given algorithms.
// Baselines descend in argument order (first argument is the best clean
// algorithm) and every algorithm degrades under label noise, the later
// ones faster — so rankings react to severities and are fully predictable.
func testKB(algorithms ...string) *kb.KnowledgeBase {
	k := kb.New()
	for i, alg := range algorithms {
		base := 0.9 - 0.1*float64(i)
		k.Add(kb.Record{
			Algorithm: alg, Criterion: "clean", Severity: 0,
			MeasuredAll: map[string]float64{"label-noise": 0, "completeness": 0},
			Dataset:     "unit", Folds: 3,
			Metrics: eval.Metrics{Kappa: base, Accuracy: (base + 1) / 2},
		})
		for _, sev := range []float64{0.2, 0.4} {
			drop := sev * float64(i+1) // later algorithms are more fragile
			k.Add(kb.Record{
				Algorithm: alg, Criterion: "label-noise", Severity: sev,
				MeasuredSeverity: sev, Dataset: "unit", Folds: 3,
				Metrics: eval.Metrics{Kappa: base - drop, Accuracy: (base - drop + 1) / 2},
			})
		}
	}
	return k
}

// newTestEngine returns an engine serving base (nil = empty KB).
func newTestEngine(t *testing.T, base *kb.KnowledgeBase) *core.Engine {
	t.Helper()
	eng, err := core.New()
	if err != nil {
		t.Fatal(err)
	}
	if base != nil {
		var buf bytes.Buffer
		if err := base.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if err := eng.LoadKB(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// newTestServer builds a server over a 2-algorithm KB with immediate
// batching (no added latency) unless opts override.
func newTestServer(t *testing.T, base *kb.KnowledgeBase, opts ...Option) *Server {
	t.Helper()
	srv, err := New(newTestEngine(t, base), append([]Option{WithBatchWindow(0)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// do drives one request through the full handler stack.
func do(srv *Server, method, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	return w
}

// decode unmarshals a recorder body, failing the test on bad JSON.
func decode[T any](t *testing.T, w *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatalf("decoding %q: %v", w.Body.String(), err)
	}
	return v
}

// errCode extracts the machine-readable code of an error envelope.
func errCode(t *testing.T, w *httptest.ResponseRecorder) string {
	t.Helper()
	return decode[errorBody](t, w).Error.Code
}

func TestHealthz(t *testing.T) {
	srv := newTestServer(t, testKB("alpha", "beta"))
	w := do(srv, "GET", "/healthz", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	h := decode[healthResponse](t, w)
	if h.Status != "ok" || !h.Ready || h.Records != 6 || h.Generation != 0 {
		t.Fatalf("health = %+v", h)
	}

	empty := newTestServer(t, nil)
	h = decode[healthResponse](t, do(empty, "GET", "/healthz", ""))
	if !strings.EqualFold(h.Status, "ok") || h.Ready || h.Records != 0 {
		t.Fatalf("empty health = %+v", h)
	}
}

func TestAdviseRanksByCleanBaseline(t *testing.T) {
	srv := newTestServer(t, testKB("alpha", "beta"))
	w := do(srv, "POST", "/v1/advise", `{"severities": [0,0,0,0,0,0,0]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d body = %s", w.Code, w.Body.String())
	}
	resp := decode[adviseResponse](t, w)
	if len(resp.Advice.Ranked) != 2 || resp.Advice.Ranked[0].Algorithm != "alpha" {
		t.Fatalf("ranked = %+v", resp.Advice.Ranked)
	}
	if resp.KB.Generation != 0 || resp.KB.Records != 6 || resp.KB.Source != "engine" {
		t.Fatalf("kb meta = %+v", resp.KB)
	}
	if got := w.Header().Get("X-OpenBI-Cache"); got != "miss" {
		t.Fatalf("cache header = %q", got)
	}
}

func TestAdviseSeverityFlipsRanking(t *testing.T) {
	srv := newTestServer(t, testKB("alpha", "beta"))
	// beta loses 2x kappa per unit label-noise; at 0.4 alpha keeps the lead
	// only if the curves are actually interpolated — beta starts higher? No:
	// alpha starts higher (0.9 vs 0.8) AND degrades slower, so check the
	// named-profile form flips nothing but shifts predictions down.
	clean := decode[adviseResponse](t, do(srv, "POST", "/v1/advise", `{"severities": []}`))
	noisy := decode[adviseResponse](t, do(srv, "POST", "/v1/advise", `{"profile": {"label-noise": 0.4}}`))
	if noisy.Advice.Ranked[0].PredictedKappa >= clean.Advice.Ranked[0].PredictedKappa {
		t.Fatalf("label noise did not lower the prediction: clean %v noisy %v",
			clean.Advice.Ranked[0], noisy.Advice.Ranked[0])
	}
	gapClean := clean.Advice.Ranked[0].PredictedKappa - clean.Advice.Ranked[1].PredictedKappa
	gapNoisy := noisy.Advice.Ranked[0].PredictedKappa - noisy.Advice.Ranked[1].PredictedKappa
	if gapNoisy <= gapClean {
		t.Fatalf("fragile runner-up should fall further: gap clean %.3f noisy %.3f", gapClean, gapNoisy)
	}
	if len(noisy.Advice.Dominant) == 0 || noisy.Advice.Dominant[0] != "label-noise" {
		t.Fatalf("dominant = %v", noisy.Advice.Dominant)
	}
}

func TestAdviseValidation(t *testing.T) {
	srv := newTestServer(t, testKB("alpha", "beta"))
	cases := []struct {
		name, body string
	}{
		{"bad json", `{`},
		{"no fields", `{}`},
		{"both fields", `{"severities": [0.1], "profile": {"label-noise": 0.1}}`},
		{"too long", `{"severities": [0,0,0,0,0,0,0,0]}`},
		{"out of range", `{"severities": [1.5]}`},
		{"negative", `{"severities": [-0.1]}`},
		{"unknown criterion", `{"profile": {"sparkle": 0.2}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := do(srv, "POST", "/v1/advise", tc.body)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status = %d body = %s", w.Code, w.Body.String())
			}
			if code := errCode(t, w); code != "bad_request" {
				t.Fatalf("code = %q", code)
			}
		})
	}
}

func TestPayloadTooLarge(t *testing.T) {
	srv := newTestServer(t, testKB("alpha"), WithMaxBodyBytes(64))
	big := `{"severities": [0.10000000, 0.20000000, 0.30000000, 0.40000000, 0]}`
	if len(big) <= 64 {
		t.Fatalf("test body must exceed the cap, has %d bytes", len(big))
	}
	w := do(srv, "POST", "/v1/advise", big)
	if w.Code != http.StatusRequestEntityTooLarge || errCode(t, w) != "payload_too_large" {
		t.Fatalf("advise: status = %d body = %s", w.Code, w.Body.String())
	}
	w = do(srv, "POST", "/v1/profile", strings.Repeat(profileCSV, 3))
	if w.Code != http.StatusRequestEntityTooLarge || errCode(t, w) != "payload_too_large" {
		t.Fatalf("profile: status = %d body = %s", w.Code, w.Body.String())
	}
}

func TestAdviseEmptyKB(t *testing.T) {
	srv := newTestServer(t, nil)
	w := do(srv, "POST", "/v1/advise", `{"severities": [0.2]}`)
	if w.Code != http.StatusServiceUnavailable || errCode(t, w) != "empty_kb" {
		t.Fatalf("status = %d code = %s", w.Code, w.Body.String())
	}
}

func TestAdviseAfterClose(t *testing.T) {
	// After Close a miss is refused, but a cached answer is still served.
	srv := newTestServer(t, testKB("alpha"))
	if w := do(srv, "POST", "/v1/advise", `{"severities": [0.1]}`); w.Code != http.StatusOK {
		t.Fatalf("warm-up status = %d body = %s", w.Code, w.Body.String())
	}
	srv.Close()
	w := do(srv, "POST", "/v1/advise", `{"severities": [0.2]}`)
	if w.Code != http.StatusServiceUnavailable || errCode(t, w) != "server_closed" {
		t.Fatalf("miss: status = %d body = %s", w.Code, w.Body.String())
	}
	w = do(srv, "POST", "/v1/advise", `{"severities": [0.1]}`)
	if w.Code != http.StatusOK || w.Header().Get("X-OpenBI-Cache") != "hit" {
		t.Fatalf("hit: status = %d cache = %q", w.Code, w.Header().Get("X-OpenBI-Cache"))
	}
}

func TestMethodAndPathErrors(t *testing.T) {
	srv := newTestServer(t, testKB("alpha"))
	if w := do(srv, "GET", "/v1/advise", ""); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET advise status = %d", w.Code)
	}
	if w := do(srv, "DELETE", "/v1/kb", ""); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE kb status = %d", w.Code)
	}
	if w := do(srv, "GET", "/v1/nope", ""); w.Code != http.StatusNotFound {
		t.Fatalf("unknown path status = %d", w.Code)
	}
}

const profileCSV = `a,b,class
1,x,yes
2,y,no
3,x,yes
4,,no
5,y,yes
6,x,no
`

func TestProfileCSV(t *testing.T) {
	srv := newTestServer(t, testKB("alpha"))
	w := do(srv, "POST", "/v1/profile?class=class", profileCSV)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d body = %s", w.Code, w.Body.String())
	}
	p := decode[profileResponse](t, w)
	if p.Rows != 6 || p.Attributes != 2 {
		t.Fatalf("profile = %+v", p)
	}
	if _, ok := p.Severities["completeness"]; !ok {
		t.Fatalf("severities = %v", p.Severities)
	}
	if p.Severities["completeness"] <= 0 {
		t.Fatal("the missing b cell must show up as completeness severity")
	}
}

func TestProfileErrors(t *testing.T) {
	srv := newTestServer(t, testKB("alpha"))
	w := do(srv, "POST", "/v1/profile?class=absent", profileCSV)
	if w.Code != http.StatusUnprocessableEntity || errCode(t, w) != "column_not_found" {
		t.Fatalf("missing class: status = %d body = %s", w.Code, w.Body.String())
	}
	w = do(srv, "POST", "/v1/profile", "a,b\n\"unclosed")
	if w.Code != http.StatusBadRequest || errCode(t, w) != "bad_csv" {
		t.Fatalf("bad csv: status = %d body = %s", w.Code, w.Body.String())
	}
	w = do(srv, "POST", "/v1/profile", "")
	if w.Code != http.StatusBadRequest {
		t.Fatalf("empty csv: status = %d", w.Code)
	}
}

func TestKBEndpoint(t *testing.T) {
	srv := newTestServer(t, testKB("alpha", "beta"))
	resp := decode[kbResponse](t, do(srv, "GET", "/v1/kb", ""))
	if resp.Generation != 0 || resp.Records != 6 || resp.Source != "engine" {
		t.Fatalf("kb = %+v", resp)
	}
	if len(resp.Algorithms) != 2 || resp.Algorithms[0] != "alpha" {
		t.Fatalf("algorithms = %v", resp.Algorithms)
	}
	if resp.AgeSeconds < 0 {
		t.Fatalf("age = %v", resp.AgeSeconds)
	}
}

// writeKBFile saves a knowledge base under dir and returns its path.
func writeKBFile(t *testing.T, dir, name string, base *kb.KnowledgeBase) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := base.Save(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReloadSwapsGenerations(t *testing.T) {
	dir := t.TempDir()
	next := writeKBFile(t, dir, "next.json", testKB("gamma", "delta", "epsilon"))
	srv := newTestServer(t, testKB("alpha", "beta"))

	before := decode[adviseResponse](t, do(srv, "POST", "/v1/advise", `{"severities": [0.1]}`))
	if before.KB.Generation != 0 {
		t.Fatalf("gen before = %d", before.KB.Generation)
	}

	w := do(srv, "POST", "/v1/kb/reload", `{"path": "`+next+`"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("reload status = %d body = %s", w.Code, w.Body.String())
	}
	re := decode[kbResponse](t, w)
	if re.Generation != 1 || re.Records != 9 || re.Source != next {
		t.Fatalf("reload = %+v", re)
	}
	if len(re.Algorithms) != 3 || re.Algorithms[0] != "delta" {
		t.Fatalf("algorithms = %v", re.Algorithms)
	}

	after := decode[adviseResponse](t, do(srv, "POST", "/v1/advise", `{"severities": [0.1]}`))
	if after.KB.Generation != 1 || len(after.Advice.Ranked) != 3 {
		t.Fatalf("advise after reload = %+v", after.KB)
	}
	if got := do(srv, "GET", "/healthz", ""); decode[healthResponse](t, got).Generation != 1 {
		t.Fatal("healthz should report the new generation")
	}
}

func TestReloadDefaultPath(t *testing.T) {
	dir := t.TempDir()
	path := writeKBFile(t, dir, "kb.json", testKB("alpha"))
	srv := newTestServer(t, nil, WithKBPath(path))
	if w := do(srv, "POST", "/v1/kb/reload", ""); w.Code != http.StatusOK {
		t.Fatalf("reload status = %d body = %s", w.Code, w.Body.String())
	}
	// The previously empty KB now serves advice.
	if w := do(srv, "POST", "/v1/advise", `{"severities": [0]}`); w.Code != http.StatusOK {
		t.Fatalf("advise after default reload = %d", w.Code)
	}
}

func TestReloadErrors(t *testing.T) {
	dir := t.TempDir()
	srv := newTestServer(t, testKB("alpha"))

	w := do(srv, "POST", "/v1/kb/reload", "")
	if w.Code != http.StatusBadRequest || errCode(t, w) != "no_kb_path" {
		t.Fatalf("no path: status = %d body = %s", w.Code, w.Body.String())
	}
	w = do(srv, "POST", "/v1/kb/reload", `{"path": "`+filepath.Join(dir, "absent.json")+`"}`)
	if w.Code != http.StatusBadRequest || errCode(t, w) != "kb_unreadable" {
		t.Fatalf("absent: status = %d body = %s", w.Code, w.Body.String())
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	w = do(srv, "POST", "/v1/kb/reload", `{"path": "`+bad+`"}`)
	if w.Code != http.StatusBadRequest || errCode(t, w) != "bad_kb" {
		t.Fatalf("bad kb: status = %d body = %s", w.Code, w.Body.String())
	}
	w = do(srv, "POST", "/v1/kb/reload", `{broken`)
	if w.Code != http.StatusBadRequest || errCode(t, w) != "bad_request" {
		t.Fatalf("bad body: status = %d body = %s", w.Code, w.Body.String())
	}
	// Failed reloads must not advance the generation.
	if g := decode[kbResponse](t, do(srv, "GET", "/v1/kb", "")).Generation; g != 0 {
		t.Fatalf("generation after failed reloads = %d", g)
	}
}

func TestReloadPathConfinement(t *testing.T) {
	dir := t.TempDir()
	configured := writeKBFile(t, dir, "kb.json", testKB("alpha"))
	sibling := writeKBFile(t, dir, "kb-v2.json", testKB("beta", "gamma"))
	outside := writeKBFile(t, t.TempDir(), "kb.json", testKB("delta"))
	srv := newTestServer(t, nil, WithKBPath(configured))

	w := do(srv, "POST", "/v1/kb/reload", `{"path": "`+outside+`"}`)
	if w.Code != http.StatusForbidden || errCode(t, w) != "path_not_allowed" {
		t.Fatalf("outside path: status = %d body = %s", w.Code, w.Body.String())
	}
	if w := do(srv, "POST", "/v1/kb/reload", `{"path": "`+sibling+`"}`); w.Code != http.StatusOK {
		t.Fatalf("sibling path: status = %d body = %s", w.Code, w.Body.String())
	}
}

func TestRefreshPublishesEngineKB(t *testing.T) {
	eng := newTestEngine(t, nil)
	srv, err := New(eng, WithBatchWindow(0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	if w := do(srv, "POST", "/v1/advise", `{"severities": [0.1]}`); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("empty engine should 503, got %d", w.Code)
	}

	// The embedder populates the engine in-process; without Refresh the
	// server would keep serving the pinned empty generation.
	var buf bytes.Buffer
	if err := testKB("alpha", "beta").Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadKB(&buf); err != nil {
		t.Fatal(err)
	}
	srv.Refresh()

	w := do(srv, "POST", "/v1/advise", `{"severities": [0.1]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("advise after Refresh: %d body = %s", w.Code, w.Body.String())
	}
	resp := decode[adviseResponse](t, w)
	if resp.KB.Generation != 1 || resp.KB.Records != 6 || resp.KB.Source != "engine" {
		t.Fatalf("kb meta = %+v", resp.KB)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv := newTestServer(t, testKB("alpha", "beta"))
	do(srv, "POST", "/v1/advise", `{"severities": [0.3]}`)
	do(srv, "POST", "/v1/advise", `{"severities": [0.3]}`)
	do(srv, "POST", "/v1/profile?class=class", profileCSV)
	do(srv, "POST", "/v1/advise", `{`) // error response

	w := do(srv, "GET", "/v1/metrics", "")
	m := decode[MetricsSnapshot](t, w)
	if m.Requests < 5 || m.Advises != 3 || m.Profiles != 1 || m.Errors != 1 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.CacheHits != 1 || m.CacheMisses != 1 || m.CacheHitRate != 0.5 {
		t.Fatalf("cache metrics = %+v", m)
	}
	if m.Batches < 1 || m.BatchedJobs < 1 || m.MeanBatchSize <= 0 {
		t.Fatalf("batch metrics = %+v", m)
	}
	if m.KBRecords != 6 || m.KBAgeSeconds < 0 {
		t.Fatalf("kb metrics = %+v", m)
	}

	// The JSON keys are a compatibility contract: additions only. Every
	// key below must stay.
	raw := decode[map[string]any](t, w)
	for _, key := range []string{
		"requests", "errors", "advises", "profiles", "lodProfiles", "reloads",
		"cacheHits", "cacheMisses", "cacheEvictions", "cacheEntries", "cacheHitRate",
		"batches", "batchedJobs", "meanBatchSize", "maxBatchSize",
		"kbGeneration", "kbRecords", "kbAgeSeconds",
		"maxInflight", "queueDepth", "inflight", "queued", "admitted", "shed",
		"endpoints",
	} {
		if _, ok := raw[key]; !ok {
			t.Errorf("/v1/metrics lacks key %q", key)
		}
	}
	endpoints, _ := raw["endpoints"].(map[string]any)
	for _, name := range []string{"advise", "profile", "lodProfile", "kb", "reload", "metrics", "healthz"} {
		ep, ok := endpoints[name].(map[string]any)
		if !ok {
			t.Errorf("/v1/metrics endpoints lack %q", name)
			continue
		}
		for _, key := range []string{"count", "meanMs", "p50Ms", "p99Ms", "p999Ms", "maxMs"} {
			if _, ok := ep[key]; !ok {
				t.Errorf("/v1/metrics endpoints.%s lacks key %q", name, key)
			}
		}
	}
}

func TestOptionValidation(t *testing.T) {
	eng := newTestEngine(t, nil)
	cases := []struct {
		name string
		opts []Option
	}{
		{"negative cache", []Option{WithCacheSize(-1)}},
		{"zero batch max", []Option{WithBatchMaxSize(0)}},
		{"negative window", []Option{WithBatchWindow(-time.Millisecond)}},
		{"zero timeout", []Option{WithRequestTimeout(0)}},
		{"zero drain", []Option{WithDrainTimeout(0)}},
		{"zero body cap", []Option{WithMaxBodyBytes(0)}},
	}
	for _, tc := range cases {
		if _, err := New(eng, tc.opts...); err == nil {
			t.Fatalf("%s: want error", tc.name)
		}
	}
	if _, err := New(nil); err == nil {
		t.Fatal("nil engine: want error")
	}
}
