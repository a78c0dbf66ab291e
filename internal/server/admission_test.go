package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gatedServer builds a server with a tiny admission budget and the cache
// disabled, so every admitted advise request reaches scoring.
func gatedServer(t *testing.T, maxInflight, queueDepth int) *Server {
	t.Helper()
	return newTestServer(t, testKB("alpha", "beta"),
		WithCacheSize(0),
		WithMaxInflight(maxInflight),
		WithQueueDepth(queueDepth),
	)
}

// heldBody is a request body whose first Read blocks until release is
// closed. handleAdvise reads its body inside the admission gate, so a
// request carrying one occupies its inflight slot until the test lets go.
type heldBody struct {
	release <-chan struct{}
	body    *strings.Reader
}

func (b *heldBody) Read(p []byte) (int, error) {
	<-b.release
	return b.body.Read(p)
}

// hold sends advise request i with a held body and returns a channel that
// yields its response once the handler has returned.
func hold(srv *Server, i int, release <-chan struct{}) <-chan *httptest.ResponseRecorder {
	out := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		body := &heldBody{release: release, body: strings.NewReader(adviseBody(i))}
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest("POST", "/v1/advise", body))
		out <- w
	}()
	return out
}

// waitUntil spins until cond holds, failing the test if it does not within
// a deadline far beyond anything a passing run needs.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// saturate holds every inflight slot of srv and parks queued requests in
// its admission queue, all released by closing release. It returns the
// held responses, slot holders first.
func saturate(t *testing.T, srv *Server, slots, queued int, release <-chan struct{}) []<-chan *httptest.ResponseRecorder {
	t.Helper()
	var held []<-chan *httptest.ResponseRecorder
	for i := 0; i < slots; i++ {
		held = append(held, hold(srv, i, release))
	}
	waitUntil(t, "slots held", func() bool { return srv.Metrics().Inflight == int64(slots) })
	for i := 0; i < queued; i++ {
		held = append(held, hold(srv, slots+i, release))
	}
	waitUntil(t, "queue filled", func() bool { return srv.Metrics().Queued == int64(queued) })
	return held
}

// adviseBody returns a unique, valid advise request per sequence number, so
// no layer can serve two concurrent requests from one cache entry.
func adviseBody(i int) string {
	return fmt.Sprintf(`{"severities": [0.%02d,0,0,0,0,0,0]}`, i%100)
}

// burst fires n concurrent advises from a common barrier and returns the
// status-code tally plus the Retry-After values seen on 429s.
func burst(srv *Server, n int) (codes map[int]int, retryAfter []string) {
	var mu sync.Mutex
	codes = make(map[int]int)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			w := do(srv, "POST", "/v1/advise", adviseBody(i))
			mu.Lock()
			defer mu.Unlock()
			codes[w.Code]++
			if w.Code == http.StatusTooManyRequests {
				retryAfter = append(retryAfter, w.Header().Get("Retry-After"))
			}
		}(i)
	}
	close(start)
	wg.Wait()
	return codes, retryAfter
}

func TestAdmissionShedsPastBudgetWithRetryAfter(t *testing.T) {
	// 2 slots + 1 queue position: with both slots held and the queue
	// position taken, a burst of 7 must shed entirely, and the 3 held
	// requests must succeed once released.
	srv := gatedServer(t, 2, 1)
	release := make(chan struct{})
	held := saturate(t, srv, 2, 1, release)
	codes, retryAfter := burst(srv, 7)
	close(release)
	for _, h := range held {
		codes[(<-h).Code]++
	}
	if codes[http.StatusOK] != 3 || codes[http.StatusTooManyRequests] != 7 {
		t.Fatalf("codes = %v, want 3x200 and 7x429", codes)
	}
	for _, ra := range retryAfter {
		if secs, err := strconv.Atoi(ra); err != nil || secs < 1 || secs > 60 {
			t.Fatalf("Retry-After = %q, want integer seconds in [1,60]", ra)
		}
	}
	m := srv.Metrics()
	if m.MaxInflight != 2 || m.QueueDepth != 1 {
		t.Fatalf("budget gauges = %d/%d", m.MaxInflight, m.QueueDepth)
	}
	if m.Admitted != 3 || m.Shed != 7 {
		t.Fatalf("admitted/shed = %d/%d, want 3/7", m.Admitted, m.Shed)
	}
	if m.Inflight != 0 || m.Queued != 0 {
		t.Fatalf("gauges not drained: inflight %d queued %d", m.Inflight, m.Queued)
	}
}

func TestQueueingStaysBoundedUnderSaturation(t *testing.T) {
	// 1 slot + 2 queue positions against 11 concurrent requests behind a
	// held slot: exactly 2 wait, the other 9 shed, and the gauges settle at
	// the budgets rather than above them.
	srv := gatedServer(t, 1, 2)
	release := make(chan struct{})
	holder := saturate(t, srv, 1, 0, release)[0]
	results := make(chan int, 11)
	for i := 1; i <= 11; i++ {
		go func(i int) { results <- do(srv, "POST", "/v1/advise", adviseBody(i)).Code }(i)
	}
	waitUntil(t, "9 shed", func() bool { return srv.Metrics().Shed == 9 })
	if m := srv.Metrics(); m.Inflight != 1 || m.Queued != 2 {
		t.Fatalf("saturated gauges: inflight %d (max 1), queued %d (max 2)", m.Inflight, m.Queued)
	}
	close(release)
	codes := map[int]int{(<-holder).Code: 1}
	for i := 0; i < 11; i++ {
		codes[<-results]++
	}
	if codes[http.StatusOK] != 3 || codes[http.StatusTooManyRequests] != 9 { // 1 slot + 2 queue positions
		t.Fatalf("codes = %v, want 3x200 and 9x429", codes)
	}
	if m := srv.Metrics(); m.Admitted != 3 {
		t.Fatalf("admitted = %d, want 3", m.Admitted)
	}
}

func TestControlPlaneLiveUnderOverload(t *testing.T) {
	// While the data plane is saturated and shedding, healthz and metrics
	// must keep answering: overload must not take out observability.
	srv := gatedServer(t, 1, 0)
	release := make(chan struct{})
	holder := saturate(t, srv, 1, 0, release)[0]

	w := do(srv, "POST", "/v1/advise", adviseBody(2))
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated advise = %d, want 429", w.Code)
	}
	if code := errCode(t, w); code != "overloaded" {
		t.Fatalf("shed error code = %q, want overloaded", code)
	}
	if w := do(srv, "GET", "/healthz", ""); w.Code != http.StatusOK {
		t.Fatalf("healthz under overload = %d", w.Code)
	}
	mw := do(srv, "GET", "/v1/metrics", "")
	if mw.Code != http.StatusOK {
		t.Fatalf("metrics under overload = %d", mw.Code)
	}
	m := decode[MetricsSnapshot](t, mw)
	if m.Inflight != 1 || m.Shed == 0 {
		t.Fatalf("metrics under overload = inflight %d shed %d", m.Inflight, m.Shed)
	}
	close(release)
	if w := <-holder; w.Code != http.StatusOK {
		t.Fatalf("released holder = %d, want 200", w.Code)
	}
}

func TestGracefulDrainWithQueuedRequests(t *testing.T) {
	// Close while requests sit in the admission queue: the queued waiters
	// must fail fast with server_closed while the slot is still held, not
	// wait out the queue deadline. The slot holder reaches scoring only
	// after Close, so its miss gets server_closed too.
	srv := gatedServer(t, 1, 4)
	release := make(chan struct{})
	held := saturate(t, srv, 1, 2, release)
	srv.Close()
	for _, h := range held[1:] {
		select {
		case w := <-h:
			if w.Code != http.StatusServiceUnavailable || errCode(t, w) != "server_closed" {
				t.Fatalf("queued waiter: status %d body %s, want 503 server_closed", w.Code, w.Body.String())
			}
		case <-time.After(2 * time.Second):
			t.Fatal("queued waiter did not fail fast after Close")
		}
	}
	close(release)
	if w := <-held[0]; w.Code != http.StatusServiceUnavailable || errCode(t, w) != "server_closed" {
		t.Fatalf("slot holder: status %d body %s, want 503 server_closed", w.Code, w.Body.String())
	}
}

func TestNoGoroutineLeakAfterOverload(t *testing.T) {
	before := runtime.NumGoroutine()
	srv := gatedServer(t, 2, 1)
	for round := 0; round < 3; round++ {
		release := make(chan struct{})
		held := saturate(t, srv, 2, 1, release)
		burst(srv, 8)
		close(release)
		for _, h := range held {
			<-h
		}
	}
	srv.Close()
	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines: before %d, after %d\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
	}
}

func TestConcurrentReloadDuringShed(t *testing.T) {
	// Hammer a tiny admission budget while the KB generation churns
	// underneath: every response must still be a well-formed 200 or 429.
	// A held request pins the only slot until 429s have been seen, then
	// the gate runs free until 200s have been seen. Run under -race (make
	// race) this doubles as the reload/shed data-race probe.
	srv := gatedServer(t, 1, 0)
	release := make(chan struct{})
	holder := saturate(t, srv, 1, 0, release)[0]
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var got200, got429, other atomic.Int64
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				switch w := do(srv, "POST", "/v1/advise", adviseBody(i*50+n)); w.Code {
				case http.StatusOK:
					got200.Add(1)
				case http.StatusTooManyRequests:
					got429.Add(1)
				default:
					other.Add(1)
				}
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				srv.Refresh() // republish the engine KB: a new generation
				do(srv, "GET", "/v1/metrics", "")
			}
		}
	}()
	waitUntil(t, "sheds behind the held slot, across reloads", func() bool {
		return got429.Load() >= 20 && srv.Metrics().Reloads >= 5
	})
	close(release)
	reloads := srv.Metrics().Reloads
	waitUntil(t, "admissions once released, across reloads", func() bool {
		return got200.Load() >= 20 && srv.Metrics().Reloads >= reloads+5
	})
	close(stop)
	wg.Wait()
	if w := <-holder; w.Code != http.StatusOK {
		t.Fatalf("released holder = %d, want 200", w.Code)
	}
	if other.Load() != 0 {
		t.Fatalf("unexpected statuses during reload/shed churn: %d", other.Load())
	}
}

func TestMetricsEndpointLatencyDistributions(t *testing.T) {
	srv := newTestServer(t, testKB("alpha", "beta"))
	for i := 0; i < 20; i++ {
		if w := do(srv, "POST", "/v1/advise", adviseBody(i)); w.Code != http.StatusOK {
			t.Fatalf("advise %d = %d", i, w.Code)
		}
	}
	m := decode[MetricsSnapshot](t, do(srv, "GET", "/v1/metrics", ""))
	ep, ok := m.Endpoints["advise"]
	if !ok {
		t.Fatalf("no advise endpoint stats: %+v", m.Endpoints)
	}
	if ep.Count != 20 {
		t.Fatalf("advise count = %d, want 20", ep.Count)
	}
	if ep.P50Ms <= 0 || ep.P99Ms < ep.P50Ms || ep.P999Ms < ep.P99Ms || ep.MaxMs < ep.P999Ms {
		t.Fatalf("advise quantiles not ordered: %+v", ep)
	}
	// The gate is off by default: gauges must read disabled, not garbage.
	if m.MaxInflight != 0 || m.Shed != 0 {
		t.Fatalf("admission gauges with gate disabled: %+v", m)
	}
}
