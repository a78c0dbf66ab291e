package loadgen

import (
	"context"
	"time"
)

// pacer hands one worker its slice of an open-loop schedule. For offered
// load R over C workers, worker w fires at start + (w + i*C)/R — the
// global sequence is a perfectly even R-per-second grid, interleaved
// round-robin so no two workers share an instant.
//
// waitNext never skips a slot: when the worker falls behind (responses
// slower than its slice of the schedule), overdue slots fire back to back
// and the measured latency — taken from the SCHEDULED time by the caller
// — absorbs the backlog. That is the coordinated-omission correction:
// a client that politely waits out a stall must still charge the stall
// to every request the schedule says it should have sent. A worker that
// was idle and slept until its slot owes the server nothing: the timer's
// wake-up overshoot is the generator's own delay (see chargeOpenLoop).
type pacer struct {
	next     time.Time
	interval time.Duration
}

// newPacer returns nil for rps <= 0 (closed-loop pacing: no schedule).
func newPacer(start time.Time, rps float64, worker, workers int) *pacer {
	if rps <= 0 {
		return nil
	}
	perReq := time.Duration(float64(time.Second) / rps)
	return &pacer{
		next:     start.Add(time.Duration(worker) * perReq),
		interval: time.Duration(float64(workers) * float64(perReq)),
	}
}

// waitNext blocks until the worker's next scheduled slot (or returns
// immediately when already overdue) and returns the slot's scheduled
// time. slept reports whether the worker was idle and slept until the
// slot. ok is false when the schedule runs past the deadline or the
// context ends first.
func (p *pacer) waitNext(ctx context.Context, deadline time.Time) (scheduled time.Time, slept, ok bool) {
	scheduled = p.next
	p.next = p.next.Add(p.interval)
	if scheduled.After(deadline) {
		return time.Time{}, false, false
	}
	wait := time.Until(scheduled)
	if wait <= 0 {
		return scheduled, false, true
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-timer.C:
		return scheduled, true, true
	case <-ctx.Done():
		return time.Time{}, false, false
	}
}

// chargeOpenLoop splits one open-loop request's timeline into the latency
// charged to the server and the generator's own wake-up lateness. A worker
// that slept until its slot is charged from the actual send, and the
// timer's overshoot past the slot is lateness. A worker that was overdue
// at its slot is charged from the slot — the coordinated-omission
// correction — and has no lateness.
func chargeOpenLoop(scheduled, sent, done time.Time, slept bool) (charged, lateness time.Duration) {
	if slept {
		return done.Sub(sent), sent.Sub(scheduled)
	}
	return done.Sub(scheduled), 0
}
