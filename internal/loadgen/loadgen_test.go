package loadgen

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
	"time"
)

// okHandler answers every advise POST with a tiny JSON body.
func okHandler(calls *atomic.Int64) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if calls != nil {
			calls.Add(1)
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"advice":{"ranking":[]},"kb":{"generation":0}}`))
	}
}

func TestClosedLoopRun(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(okHandler(&calls))
	defer ts.Close()

	res, err := Run(context.Background(), Spec{
		Target:      ts.URL,
		Concurrency: 4,
		Warmup:      50 * time.Millisecond,
		Duration:    300 * time.Millisecond,
		Seed:        42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 || res.StatusOK != res.Requests {
		t.Fatalf("requests=%d ok=%d, want all ok and nonzero", res.Requests, res.StatusOK)
	}
	if res.Throughput <= 0 {
		t.Fatalf("throughput = %v", res.Throughput)
	}
	if res.P50 <= 0 || res.P99 < res.P50 || res.P999 < res.P99 {
		t.Fatalf("quantiles not ordered: p50=%v p99=%v p999=%v", res.P50, res.P99, res.P999)
	}
	if calls.Load() < res.Requests {
		t.Fatalf("server saw %d calls but %d were measured", calls.Load(), res.Requests)
	}
	if res.ErrorRate != 0 || res.ShedRate != 0 {
		t.Fatalf("unexpected error/shed rates: %v / %v", res.ErrorRate, res.ShedRate)
	}
	if res.WakeLateP50 != 0 || res.WakeLateP99 != 0 {
		t.Fatalf("closed loop reported wake-up lateness %v / %v", res.WakeLateP50, res.WakeLateP99)
	}
}

func TestOpenLoopOffersScheduledRate(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(okHandler(&calls))
	defer ts.Close()

	const rps = 200.0
	res, err := Run(context.Background(), Spec{
		Target:      ts.URL,
		Concurrency: 4,
		Duration:    500 * time.Millisecond,
		RPS:         rps,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := rps * 0.5
	if got := float64(res.Requests); got < 0.7*want || got > 1.3*want {
		t.Fatalf("measured %v requests at %v rps over 500ms, want ~%v", got, rps, want)
	}
	// Workers this far below capacity sleep until their slots, so the
	// generator's own wake-up lateness is measured and reported apart.
	if res.WakeLateP99 <= 0 || res.WakeLateP99 < res.WakeLateP50 {
		t.Fatalf("wake-up lateness p50 %v p99 %v, want positive and ordered", res.WakeLateP50, res.WakeLateP99)
	}
}

func TestShedAndServerErrorsCounted(t *testing.T) {
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch n.Add(1) % 4 {
		case 0:
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":{"status":429,"code":"overloaded"}}`, http.StatusTooManyRequests)
		case 1:
			http.Error(w, "boom", http.StatusInternalServerError)
		default:
			okHandler(nil)(w, r)
		}
	}))
	defer ts.Close()

	res, err := Run(context.Background(), Spec{
		Target: ts.URL, Concurrency: 2, Duration: 200 * time.Millisecond, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed == 0 || res.Server5xx == 0 {
		t.Fatalf("shed=%d 5xx=%d, want both nonzero", res.Shed, res.Server5xx)
	}
	if res.ShedRate <= 0 || res.ErrorRate <= 0 {
		t.Fatalf("rates: shed %v error %v", res.ShedRate, res.ErrorRate)
	}
	if got := res.Shed + res.Server5xx + res.StatusOK + res.Client4xx + res.Errors; got != res.Requests {
		t.Fatalf("outcome counts %d do not sum to requests %d", got, res.Requests)
	}
}

func TestRunValidatesSpec(t *testing.T) {
	if _, err := Run(context.Background(), Spec{}); err == nil {
		t.Fatal("empty Target accepted")
	}
	if _, err := Run(context.Background(), Spec{Target: "http://x", RPS: -1}); err == nil {
		t.Fatal("negative RPS accepted")
	}
}

func TestMixSamplingDeterministicAndInRange(t *testing.T) {
	for _, name := range MixNames() {
		m, err := ParseMix(name)
		if err != nil {
			t.Fatal(err)
		}
		a := rand.New(rand.NewSource(99))
		b := rand.New(rand.NewSource(99))
		for i := 0; i < 200; i++ {
			va, vb := m.Sample(a, DefaultDim), m.Sample(b, DefaultDim)
			for j := range va {
				if va[j] != vb[j] {
					t.Fatalf("mix %s not deterministic at draw %d", name, i)
				}
				if va[j] < 0 || va[j] > 1 {
					t.Fatalf("mix %s severity %v out of range", name, va[j])
				}
				// 0.01 grid (allow float64 representation error)
				if q := va[j] * 100; math.Abs(q-math.Round(q)) > 1e-9 {
					t.Fatalf("mix %s severity %v not quantized", name, va[j])
				}
			}
		}
	}
	if _, err := ParseMix("nope"); err == nil {
		t.Fatal("unknown mix accepted")
	}
}

func TestMixesDiffer(t *testing.T) {
	// clean must stay near zero; noisy must not.
	rng := rand.New(rand.NewSource(5))
	sum := func(m Mix) float64 {
		total := 0.0
		for i := 0; i < 100; i++ {
			for _, v := range m.Sample(rng, DefaultDim) {
				total += v
			}
		}
		return total
	}
	clean, noisy := sum(MustMix("clean")), sum(MustMix("noisy"))
	if clean >= noisy {
		t.Fatalf("clean mix total severity %v >= noisy %v", clean, noisy)
	}
}

func TestRecorderCapturesPairs(t *testing.T) {
	ts := httptest.NewServer(okHandler(nil))
	defer ts.Close()

	dir := t.TempDir()
	spec := CaptureSpec{Mix: "recorded", Seed: 42, Dim: DefaultDim, Concurrency: 2, KB: KBInfo{Generation: 3}}
	rec, err := NewRecorder(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(context.Background(), Spec{
		Target: ts.URL, Concurrency: 2, Duration: 150 * time.Millisecond,
		Seed: 42, Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := rec.Count()
	if want == 0 {
		t.Fatal("recorder captured nothing")
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	// The raw layout: header first, footer last, entries between.
	raw, err := os.ReadFile(rec.Path())
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	var lines [][]byte
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	if int64(len(lines)) != want+2 {
		t.Fatalf("file has %d lines, want %d entries + header + footer", len(lines), want)
	}
	if !bytes.Contains(lines[0], []byte(`"capture":"openbi-loadgen"`)) {
		t.Fatalf("first line is not a v2 header: %s", lines[0])
	}
	if !bytes.Contains(lines[len(lines)-1], []byte(`"footer":true`)) {
		t.Fatalf("last line is not a footer: %s", lines[len(lines)-1])
	}

	// The verified read: spec round-trips, every entry is a measured pair.
	c, err := LoadCapture(rec.Path(), ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Spec != spec {
		t.Fatalf("spec round-trip: got %+v want %+v", c.Spec, spec)
	}
	if int64(len(c.Entries)) != want || c.Truncated {
		t.Fatalf("read %d entries (truncated=%v), want %d", len(c.Entries), c.Truncated, want)
	}
	for i, e := range c.Entries {
		if e.Seq != int64(i+1) {
			t.Fatalf("entry %d has seq %d", i, e.Seq)
		}
		if e.Status != 200 || e.Endpoint != "/v1/advise" {
			t.Fatalf("entry %d: status=%d endpoint=%q", i, e.Status, e.Endpoint)
		}
		var req struct {
			Severities []float64 `json:"severities"`
		}
		if err := json.Unmarshal(e.Request, &req); err != nil || len(req.Severities) != DefaultDim {
			t.Fatalf("entry %d request malformed: %v %v", i, err, req)
		}
		if len(e.Response) == 0 {
			t.Fatalf("entry %d: empty response", i)
		}
	}
}

func TestRunMeasuresObservedWindowOnEarlyCancel(t *testing.T) {
	ts := httptest.NewServer(okHandler(nil))
	defer ts.Close()

	// Nominal 10s run cancelled after ~200ms: the denominators must come
	// from the observed window, not the nominal duration, or throughput on
	// a partial run collapses toward zero.
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	nominal := 10 * time.Second
	res, err := Run(ctx, Spec{
		Target: ts.URL, Concurrency: 4, Warmup: 0, Duration: nominal, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration >= time.Second {
		t.Fatalf("observed duration %v, want the ~200ms cancelled window", res.Duration)
	}
	perObserved := float64(res.StatusOK) / res.Duration.Seconds()
	if res.Throughput < 0.5*perObserved || res.Throughput > 2*perObserved {
		t.Fatalf("throughput %v not computed over the observed window (%v req in %v)",
			res.Throughput, res.StatusOK, res.Duration)
	}
	perNominal := float64(res.StatusOK) / nominal.Seconds()
	if res.Throughput < 10*perNominal {
		t.Fatalf("throughput %v looks computed over the nominal duration (%v)", res.Throughput, perNominal)
	}
}

func TestSnapshotShapeIsBenchcmpCompatible(t *testing.T) {
	r := &Result{
		Mix: "recorded", Concurrency: 4, OfferedRPS: 100, Duration: time.Second,
		Requests: 100, StatusOK: 100, Throughput: 100,
		P50: time.Millisecond, P99: 2 * time.Millisecond, P999: 3 * time.Millisecond, Max: 4 * time.Millisecond,
	}
	sweep := &SweepResult{Levels: []*Result{r}, KneeRPS: 100, KneeThroughput: 100, Budget: 50 * time.Millisecond}
	snap := BuildSnapshot("LoadgenServeAdvise", sweep.Levels, sweep)
	if len(snap.Benchmarks) != 2 {
		t.Fatalf("want level + knee entries, got %d", len(snap.Benchmarks))
	}
	lvl := snap.Benchmarks[0]
	if lvl.Name != "LoadgenServeAdvise/offered=100rps" {
		t.Fatalf("level name %q", lvl.Name)
	}
	if lvl.Metrics["ns/op"] != float64(2*time.Millisecond) {
		t.Fatalf("ns/op must be p99, got %v", lvl.Metrics["ns/op"])
	}
	knee := snap.Benchmarks[1]
	if _, gated := knee.Metrics["ns/op"]; gated {
		t.Fatal("knee entry must not carry ns/op (it would be gated)")
	}
	if knee.Metrics["knee-rps"] != 100 {
		t.Fatalf("knee-rps = %v", knee.Metrics["knee-rps"])
	}
}
