package main

import (
	"testing"
	"time"
)

func TestAccountOpenLoop(t *testing.T) {
	due := time.Unix(100, 0)
	ms := func(n float64) time.Duration { return time.Duration(n * float64(time.Millisecond)) }

	// Idle connection: the generator slept past the due time by 1 ms. The
	// oversleep is the generator's, reported as lateness and not charged.
	charged, late, wait := accountOpenLoop(due, due.Add(ms(1)), due.Add(ms(3.5)), true)
	if charged != ms(2.5) || late != ms(1) || wait != 0 {
		t.Errorf("idle: charged %v lateness %v wait %v; want 2.5ms 1ms 0", charged, late, wait)
	}

	// Busy connection: the previous reply came 4 ms after this request was
	// due. The wait is the server's backlog and is charged.
	charged, late, wait = accountOpenLoop(due, due.Add(ms(4)), due.Add(ms(6.5)), false)
	if charged != ms(6.5) || late != 0 || wait != ms(4) {
		t.Errorf("busy: charged %v lateness %v wait %v; want 6.5ms 0 4ms", charged, late, wait)
	}
}

func TestLevelOK(t *testing.T) {
	level := func(lat, wait []float64, attempted, failed, abandoned int) *loadStats {
		at := make([]float64, len(wait))
		for i := range at {
			at[i] = 9 * float64(i) / float64(len(wait)) // spread over a 9 s level
		}
		return &loadStats{lat: lat, connWait: wait, waitAt: at, attempted: attempted, failed: failed, abandoned: abandoned}
	}
	fill := func(n int, v float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	d := 9 * time.Second
	if ok, why := levelOK(level(fill(1000, 0.003), fill(1000, 0), 1000, 0, 0), d); !ok {
		t.Errorf("healthy level failed: %s", why)
	}
	if ok, _ := levelOK(level(fill(1000, 0.030), fill(1000, 0), 1000, 0, 0), d); ok {
		t.Error("p99 of 30 ms passed a 25 ms limit")
	}
	if ok, _ := levelOK(level(fill(1000, 0.003), fill(1000, 0), 1000, 0, 20), d); ok {
		t.Error("2% abandoned passed the 99% completion floor")
	}
	if ok, _ := levelOK(level(fill(1000, 0.003), fill(1000, 0), 1000, 2, 0), d); ok {
		t.Error("0.2% failed passed the 0.1% failure ceiling")
	}
	growing := make([]float64, 1000)
	for i := range growing {
		growing[i] = 0.00001 * float64(i) // 0 → 10 ms across the level
	}
	if ok, _ := levelOK(level(fill(1000, 0.003), growing, 1000, 0, 0), d); ok {
		t.Error("a connection wait growing through the level passed")
	}
}
