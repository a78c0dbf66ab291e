package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentAdviseDuringReload is the serving layer's central
// concurrency guarantee, run under -race in CI: 32 goroutines hammer
// /v1/advise while another goroutine hot-swaps the knowledge base back and
// forth between two KBs with different algorithm suites and record counts.
// Every response must be self-consistent against exactly one snapshot: the
// generation it reports determines which KB it was scored on, and the
// ranked algorithms and record count must match that KB exactly — a torn
// response (generation from one KB, ranking from the other) fails.
func TestConcurrentAdviseDuringReload(t *testing.T) {
	dir := t.TempDir()
	kbA := testKB("alpha", "beta")          // 6 records, generations 0, 2, 4, ...
	kbB := testKB("gamma", "delta", "zeta") // 9 records, generations 1, 3, 5, ...
	pathA := writeKBFile(t, dir, "a.json", kbA)
	pathB := writeKBFile(t, dir, "b.json", kbB)
	wantAlgs := map[uint64]string{0: "alpha,beta", 1: "delta,gamma,zeta"}
	wantRecords := map[uint64]int{0: 6, 1: 9}

	srv := newTestServer(t, kbA, WithBatchWindow(100*time.Microsecond))

	const (
		workers   = 32
		perWorker = 25
		reloads   = 12
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker+reloads)

	// Reloader: swap B, A, B, A, ... while the advisers run.
	stop := make(chan struct{})
	var reloadWG sync.WaitGroup
	reloadWG.Add(1)
	go func() {
		defer reloadWG.Done()
		paths := []string{pathB, pathA}
		for i := 0; i < reloads; i++ {
			select {
			case <-stop:
				return
			default:
			}
			w := do(srv, "POST", "/v1/kb/reload", `{"path": "`+paths[i%2]+`"}`)
			if w.Code != http.StatusOK {
				errs <- fmt.Errorf("reload %d: status %d: %s", i, w.Code, w.Body.String())
				return
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()

	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sev := float64((g*perWorker+i)%50) / 100 // 0.00 .. 0.49
				body := fmt.Sprintf(`{"severities": [0, 0, 0, 0, %.2f]}`, sev)
				w := do(srv, "POST", "/v1/advise", body)
				if w.Code != http.StatusOK {
					errs <- fmt.Errorf("worker %d req %d: status %d: %s", g, i, w.Code, w.Body.String())
					return
				}
				var resp adviseResponse
				if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
					errs <- fmt.Errorf("worker %d req %d: %v", g, i, err)
					return
				}
				parity := resp.KB.Generation % 2
				names := make([]string, len(resp.Advice.Ranked))
				for j, r := range resp.Advice.Ranked {
					names[j] = r.Algorithm
				}
				sort.Strings(names)
				if got := strings.Join(names, ","); got != wantAlgs[parity] {
					errs <- fmt.Errorf("torn response: generation %d ranked %q, want %q",
						resp.KB.Generation, got, wantAlgs[parity])
					return
				}
				if resp.KB.Records != wantRecords[parity] {
					errs <- fmt.Errorf("torn response: generation %d records %d, want %d",
						resp.KB.Generation, resp.KB.Records, wantRecords[parity])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	reloadWG.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	m := srv.Metrics()
	if m.Advises != workers*perWorker {
		t.Fatalf("advises = %d, want %d", m.Advises, workers*perWorker)
	}
	t.Logf("served %d advise calls across %d reloads: %d batches (mean %.1f, max %d), cache hit rate %.2f",
		m.Advises, m.Reloads, m.Batches, m.MeanBatchSize, m.MaxBatchSize, m.CacheHitRate)
}

// TestGracefulShutdownDrain proves a live request survives shutdown: an
// advise call whose body the client has not finished sending is in flight
// when the serve context is canceled. Serve must close the listener, wait
// for the request and answer it (200) rather than kill it, and only then
// return.
func TestGracefulShutdownDrain(t *testing.T) {
	srv := newTestServer(t, testKB("alpha", "beta"), WithDrainTimeout(5*time.Second))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ctx, ln) }()

	body, sendBody := io.Pipe()
	reqDone := make(chan error, 1)
	go func() {
		resp, err := http.Post("http://"+addr+"/v1/advise", "application/json", body)
		if err != nil {
			reqDone <- err
			return
		}
		defer resp.Body.Close()
		if _, err := io.ReadAll(resp.Body); err != nil {
			reqDone <- err
			return
		}
		if resp.StatusCode != http.StatusOK {
			reqDone <- fmt.Errorf("status %d", resp.StatusCode)
			return
		}
		reqDone <- nil
	}()

	// The handler counts the advise on entry, then blocks reading a body
	// the client has not sent yet. Pull the plug and wait until shutdown
	// has closed the listener, with the request still in flight.
	waitUntil(t, "advise in flight", func() bool { return srv.Metrics().Advises == 1 })
	cancel()
	waitUntil(t, "listener closed", func() bool {
		conn, err := net.DialTimeout("tcp", addr, 250*time.Millisecond)
		if err == nil {
			conn.Close()
		}
		return err != nil
	})
	select {
	case err := <-serveDone:
		t.Fatalf("Serve returned %v with a request still in flight", err)
	default:
	}

	if _, err := io.WriteString(sendBody, `{"severities": [0.3]}`); err != nil {
		t.Fatal(err)
	}
	sendBody.Close()
	if err := <-reqDone; err != nil {
		t.Fatalf("in-flight request was dropped during shutdown: %v", err)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve = %v, want clean nil after drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
}
