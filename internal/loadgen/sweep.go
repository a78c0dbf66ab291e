package loadgen

import (
	"context"
	"fmt"
	"time"
)

// SweepSpec configures a saturation sweep: a sequence of open-loop runs at
// geometrically increasing offered load, stopped shortly after the server
// stops sustaining its latency budget. The result locates the knee of the
// saturation curve — the highest offered load the server absorbed with
// p99 inside budget and without shedding or falling behind.
type SweepSpec struct {
	// Base carries everything a single level needs (target, mix,
	// concurrency, per-level Duration and Warmup, seed, recorder). Its
	// RPS field is overwritten per level.
	Base Spec
	// StartRPS is the first offered level (default 100).
	StartRPS float64
	// Factor multiplies the offered load between levels (default 2).
	Factor float64
	// MaxLevels caps the sweep (default 8).
	MaxLevels int
	// MinLevels levels always run, even when the budget blows early, so
	// the committed snapshot has a curve, not a point (default 3).
	MinLevels int
	// P99Budget is the latency budget defining the knee (default 50ms).
	P99Budget time.Duration
}

func (s SweepSpec) withDefaults() SweepSpec {
	if s.StartRPS <= 0 {
		s.StartRPS = 100
	}
	if s.Factor <= 1 {
		s.Factor = 2
	}
	if s.MaxLevels <= 0 {
		s.MaxLevels = 8
	}
	if s.MinLevels <= 0 {
		s.MinLevels = 3
	}
	if s.MinLevels > s.MaxLevels {
		s.MinLevels = s.MaxLevels
	}
	if s.P99Budget <= 0 {
		s.P99Budget = 50 * time.Millisecond
	}
	return s
}

// SweepResult is the measured saturation curve.
type SweepResult struct {
	Levels []*Result
	// KneeRPS is the highest offered load that sustained the budget
	// (0 when even the first level blew it).
	KneeRPS float64
	// KneeThroughput is the achieved 2xx/s at the knee level.
	KneeThroughput float64
	Budget         time.Duration
}

// sustained reports whether a level absorbed its offered load: p99 inside
// the budget, essentially nothing shed or errored, and achieved
// throughput keeping up with the schedule (a server that silently served
// only half the offered rate has saturated even if what it served was
// fast).
func sustained(r *Result, budget time.Duration) bool {
	return r.P99 <= budget &&
		r.ShedRate <= 0.01 &&
		r.ErrorRate <= 0.01 &&
		r.Throughput >= 0.95*r.OfferedRPS
}

// RunSweep steps offered load until one level past the knee (but at least
// MinLevels), then reports the curve. Progress (one line per level) goes
// through progress when non-nil.
func RunSweep(ctx context.Context, spec SweepSpec, progress func(string)) (*SweepResult, error) {
	spec = spec.withDefaults()
	out := &SweepResult{Budget: spec.P99Budget}
	rps := spec.StartRPS
	for level := 0; level < spec.MaxLevels; level++ {
		base := spec.Base
		base.RPS = rps
		res, err := Run(ctx, base)
		if err != nil {
			return out, fmt.Errorf("loadgen: sweep level %.0f rps: %w", rps, err)
		}
		out.Levels = append(out.Levels, res)
		ok := sustained(res, spec.P99Budget)
		if ok {
			out.KneeRPS = res.OfferedRPS
			out.KneeThroughput = res.Throughput
		}
		if progress != nil {
			verdict := "sustained"
			if !ok {
				verdict = "saturated"
			}
			progress(fmt.Sprintf("offered %7.0f rps: throughput %8.1f/s  p50 %8s  p99 %8s  p999 %8s  shed %5.1f%%  wake-up lateness p99 %8s  %s",
				res.OfferedRPS, res.Throughput, res.P50, res.P99, res.P999, 100*res.ShedRate, res.WakeLateP99, verdict))
		}
		if !ok && level+1 >= spec.MinLevels {
			break // one level past the knee is plotted; further ones only melt
		}
		rps *= spec.Factor
	}
	return out, nil
}
