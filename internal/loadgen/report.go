package loadgen

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"
)

// Snapshot mirrors scripts/benchjson's file layout, so BENCH_serve.json
// plugs straight into scripts/benchcmp and the `make bench-check`
// regression gate: each offered-load level is one benchmark entry whose
// ns/op is the measured p99 (the gated metric), with throughput, quantiles
// and shed/error rates alongside as informational metrics. The knee gets
// its own ns/op-free entry so it is reported but never gated on.
type Snapshot struct {
	Go         string       `json:"go"`
	GOOS       string       `json:"goos"`
	GOARCH     string       `json:"goarch"`
	CPU        string       `json:"cpu,omitempty"`
	NumCPU     int          `json:"numCPU"`
	Benchmarks []BenchEntry `json:"benchmarks"`
}

// BenchEntry is one benchmark line, benchjson-compatible.
type BenchEntry struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// entryName labels a level stably across runs — fixed offered loads keep
// the same name, so benchcmp pairs them up between snapshots.
func entryName(prefix string, r *Result) string {
	if r.OfferedRPS > 0 {
		return fmt.Sprintf("%s/offered=%.0frps", prefix, r.OfferedRPS)
	}
	return fmt.Sprintf("%s/closed/c=%d", prefix, r.Concurrency)
}

// levelMetrics flattens one Result into benchjson metrics.
func levelMetrics(r *Result) map[string]float64 {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return map[string]float64{
		"ns/op":          float64(r.P99), // the gated number: p99 latency
		"p50-ms":         ms(r.P50),
		"p99-ms":         ms(r.P99),
		"p999-ms":        ms(r.P999),
		"max-ms":         ms(r.Max),
		"throughput-rps": r.Throughput,
		"error-rate":     r.ErrorRate,
		"shed-rate":      r.ShedRate,
		"requests":       float64(r.Requests),
	}
}

// BuildSnapshot assembles the committed BENCH_serve.json shape from a set
// of measured levels (one, for a plain run; the whole curve for a sweep)
// plus the sweep's knee when there is one.
func BuildSnapshot(prefix string, levels []*Result, sweep *SweepResult) Snapshot {
	snap := Snapshot{
		Go:     runtime.Version(),
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(),
	}
	for _, r := range levels {
		snap.Benchmarks = append(snap.Benchmarks, BenchEntry{
			Name:       entryName(prefix, r),
			Iterations: r.Requests,
			Metrics:    levelMetrics(r),
		})
	}
	if sweep != nil {
		snap.Benchmarks = append(snap.Benchmarks, BenchEntry{
			Name:       prefix + "/knee",
			Iterations: 1,
			Metrics: map[string]float64{
				"knee-rps":            sweep.KneeRPS,
				"knee-throughput-rps": sweep.KneeThroughput,
				"p99-budget-ms":       float64(sweep.Budget) / float64(time.Millisecond),
			},
		})
	}
	return snap
}

// WriteSnapshot emits the snapshot as indented JSON (the committed-file
// convention benchjson established).
func WriteSnapshot(w io.Writer, snap Snapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(snap)
}

// Summary renders one Result as a human line for CLI output.
func (r *Result) Summary() string {
	mode := fmt.Sprintf("closed loop, %d conns", r.Concurrency)
	late := ""
	if r.OfferedRPS > 0 {
		mode = fmt.Sprintf("open loop, %.0f rps offered over %d conns", r.OfferedRPS, r.Concurrency)
		late = fmt.Sprintf(", generator wake-up lateness p50 %s p99 %s (not charged)", r.WakeLateP50, r.WakeLateP99)
	}
	return fmt.Sprintf("%s, mix %s, %s measured: %d requests, %.1f/s ok, p50 %s p99 %s p999 %s max %s, shed %.1f%%, errors %.1f%%%s",
		mode, r.Mix, r.Duration, r.Requests, r.Throughput, r.P50, r.P99, r.P999, r.Max,
		100*r.ShedRate, 100*r.ErrorRate, late)
}
