package main

// `bench compare base.jsonl new.jsonl`: compares the runs of two commits,
// one row per (metric, workload, mode). Each input is a results.jsonl —
// one run per line, as every benchmark run appends to <out>/results.jsonl.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

func readRuns(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}

// series is one metric's values on one workload in one mode, in run order,
// with the seed of each run.
type series struct {
	unit   string
	values []float64
	seeds  []int64
}

type seriesKey struct {
	metric, workload string
	trace            int
}

func collect(runs []record) map[seriesKey]*series {
	out := map[seriesKey]*series{}
	for _, r := range runs {
		for name, m := range r.Detail {
			k := seriesKey{name, r.Workload, r.Trace}
			s := out[k]
			if s == nil {
				s = &series{unit: m.Unit}
				out[k] = s
			}
			s.values = append(s.values, m.Value)
			s.seeds = append(s.seeds, r.Seed)
		}
	}
	return out
}

// pairBySeed lines up the runs of both sides that share a seed, in the
// order the parent ran them; without shared seeds it pairs runs by
// position.
func pairBySeed(base, change *series) ([]float64, []float64) {
	bySeed := map[int64][]float64{}
	for i, s := range change.seeds {
		bySeed[s] = append(bySeed[s], change.values[i])
	}
	var pb, pc []float64
	for i, s := range base.seeds {
		if vs := bySeed[s]; len(vs) > 0 {
			pb, pc = append(pb, base.values[i]), append(pc, vs[0])
			bySeed[s] = vs[1:]
		}
	}
	if len(pb) == 0 {
		n := min(len(base.values), len(change.values))
		return base.values[:n], change.values[:n]
	}
	return pb, pc
}

func compareMain(specPath string, args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare base.jsonl new.jsonl")
		return 2
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	specs := map[string]specMetric{}
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		specs[m.Name] = m
	}
	var sides [2]map[seriesKey]*series
	for i, path := range args {
		runs, err := readRuns(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			return 2
		}
		sides[i] = collect(runs)
	}
	keys := make([]seriesKey, 0, len(sides[0]))
	for k := range sides[0] {
		if _, ok := sides[1][k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.trace != b.trace {
			return a.trace < b.trace
		}
		if a.metric != b.metric {
			return a.metric < b.metric
		}
		return a.workload < b.workload
	})
	fmt.Printf("%-34s %-12s %-5s %5s %30s %30s %8s %7s %6s %-10s\n",
		"metric", "workload", "mode", "runs", "base median [q1, q3]", "new median [q1, q3]", "delta", "U p", "wins", "verdict")
	regressions := 0
	for _, k := range keys {
		base, change := sides[0][k], sides[1][k]
		sm, bounded := specs[k.metric]
		lowerIsBetter := sm.Better != "higher"
		pb, pc := pairBySeed(base, change)
		wins, pairs, _ := claimRule(pb, pc, lowerIsBetter)
		_, p := mannWhitney(base.values, change.values)
		v := "-" // a metric BENCHMARK.json does not list has no known better direction
		if bounded {
			v = verdict(pb, pc, lowerIsBetter, sm.Bound)
		}
		if v == "regression" {
			regressions++
		}
		mode := "e2e"
		if k.trace == 1 {
			mode = "trace"
		}
		mb := median(base.values)
		delta := "-"
		if mb != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(median(change.values)-mb)/math.Abs(mb))
		}
		fmt.Printf("%-34s %-12s %-5s %2d/%-2d %30s %30s %8s %7.3f %2d/%-3d %-10s\n",
			k.metric, k.workload, mode, len(base.values), len(change.values),
			summary(base.values, base.unit), summary(change.values, change.unit), delta, p, wins, pairs, v)
	}
	fmt.Println("verdicts apply BENCHMARK.json bounds to end-to-end metrics; gain needs >= 9/10 paired wins and a median shift beyond the parent's IQR")
	if regressions > 0 {
		return 1
	}
	return 0
}

func summary(xs []float64, unit string) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] %s", median(xs), q1, q3, unit)
}
