package loadgen

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// queueServer models a server with hard capacity: K concurrent slots at a
// fixed service time — max throughput K/serviceTime. Below capacity the
// latency is ~serviceTime; offered load past capacity builds an unbounded
// backlog, and open-loop latency (measured from the schedule) explodes.
func queueServer(slots int, service time.Duration) *httptest.Server {
	sem := make(chan struct{}, slots)
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body first: the net/http server only watches for client
		// disconnect (canceling r.Context()) once the body is consumed, and
		// the cancellation paths below are what keep one sweep level's
		// abandoned queue from eating the next level's capacity.
		io.Copy(io.Discard, r.Body)
		select {
		case sem <- struct{}{}:
		case <-r.Context().Done():
			return // canceled while queued: a real server drops the work
		}
		if r.Context().Err() != nil {
			// Lost the race: ctx was already done when the slot freed.
			<-sem
			return
		}
		t := time.NewTimer(service)
		select {
		case <-t.C:
		case <-r.Context().Done():
			t.Stop() // canceled mid-service: free the slot immediately
		}
		<-sem
		w.Write([]byte(`{"advice":{}}`))
	}))
}

func TestSweepFindsKnee(t *testing.T) {
	// Capacity = 2 slots / 10ms = 200 rps. Levels 40, 160, 640:
	// the first two sustain, 640 (3.2x capacity) must blow the budget.
	ts := queueServer(2, 10*time.Millisecond)
	defer ts.Close()

	res, err := RunSweep(context.Background(), SweepSpec{
		Base: Spec{
			Target:      ts.URL,
			Concurrency: 16,
			Duration:    600 * time.Millisecond,
			Warmup:      150 * time.Millisecond,
			Seed:        42,
		},
		StartRPS:  40,
		Factor:    4,
		MaxLevels: 3,
		P99Budget: 100 * time.Millisecond,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) != 3 {
		t.Fatalf("ran %d levels, want 3", len(res.Levels))
	}
	if res.KneeRPS != 160 {
		for _, l := range res.Levels {
			t.Logf("offered %.0f: throughput %.1f p99 %v shed %.2f", l.OfferedRPS, l.Throughput, l.P99, l.ShedRate)
		}
		t.Fatalf("knee = %.0f rps, want 160", res.KneeRPS)
	}
	last := res.Levels[2]
	if sustained(last, res.Budget) {
		t.Fatalf("3.2x-capacity level unexpectedly sustained: p99 %v throughput %v", last.P99, last.Throughput)
	}
}

func TestSweepStopsEarlyPastKnee(t *testing.T) {
	// A server that can never keep up: every level fails, so the sweep
	// must stop at MinLevels, not run all MaxLevels.
	ts := queueServer(1, 50*time.Millisecond) // capacity 20 rps
	defer ts.Close()

	res, err := RunSweep(context.Background(), SweepSpec{
		Base: Spec{
			Target:      ts.URL,
			Concurrency: 8,
			Duration:    300 * time.Millisecond,
			Warmup:      50 * time.Millisecond,
			Seed:        1,
		},
		StartRPS:  500,
		Factor:    2,
		MaxLevels: 8,
		MinLevels: 2,
		P99Budget: 60 * time.Millisecond,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) != 2 {
		t.Fatalf("ran %d levels, want MinLevels=2 then stop", len(res.Levels))
	}
	if res.KneeRPS != 0 {
		t.Fatalf("knee = %v for a server that never sustained", res.KneeRPS)
	}
}

func TestPacerScheduleIsEvenAndComplete(t *testing.T) {
	start := time.Now().Add(time.Hour) // far future: waitNext won't sleep usefully, so only inspect next/interval
	p := newPacer(start, 100, 1, 4)
	if p.interval != 40*time.Millisecond {
		t.Fatalf("interval = %v, want 40ms (4 workers at 100 rps)", p.interval)
	}
	if got := p.next.Sub(start); got != 10*time.Millisecond {
		t.Fatalf("worker 1 first slot offset = %v, want 10ms", got)
	}
	if newPacer(start, 0, 0, 4) != nil {
		t.Fatal("rps=0 must disable pacing")
	}
}

func TestChargeOpenLoop(t *testing.T) {
	slot := time.Unix(1000, 0)
	// An idle worker whose timer woke it 700µs past its slot: the server is
	// charged only from the send; the 700µs is the generator's lateness.
	sent, done := slot.Add(700*time.Microsecond), slot.Add(900*time.Microsecond)
	if charged, late := chargeOpenLoop(slot, sent, done, true); charged != 200*time.Microsecond || late != 700*time.Microsecond {
		t.Fatalf("slept: charged %v lateness %v, want 200µs and 700µs", charged, late)
	}
	// A worker still busy 3ms past its slot: the whole wait is charged
	// (coordinated omission) and none of it is lateness.
	sent, done = slot.Add(3*time.Millisecond), slot.Add(3200*time.Microsecond)
	if charged, late := chargeOpenLoop(slot, sent, done, false); charged != 3200*time.Microsecond || late != 0 {
		t.Fatalf("overdue: charged %v lateness %v, want 3.2ms and 0", charged, late)
	}
}

func TestPacerReportsWhetherItSlept(t *testing.T) {
	ctx := context.Background()
	deadline := time.Now().Add(time.Hour)
	overdue := time.Now().Add(-time.Second)
	p := &pacer{next: overdue, interval: time.Millisecond}
	if scheduled, slept, ok := p.waitNext(ctx, deadline); !ok || slept || !scheduled.Equal(overdue) {
		t.Fatalf("overdue slot: scheduled %v slept %v ok %v, want %v, false, true", scheduled, slept, ok, overdue)
	}
	p = &pacer{next: time.Now().Add(2 * time.Millisecond), interval: time.Hour}
	scheduled, slept, ok := p.waitNext(ctx, deadline)
	if !ok || !slept || time.Now().Before(scheduled) {
		t.Fatalf("future slot: slept %v ok %v, returned before its slot: %v", slept, ok, time.Now().Before(scheduled))
	}
	if _, _, ok := p.waitNext(ctx, deadline); ok {
		t.Fatal("a slot past the deadline must end the schedule")
	}
}
