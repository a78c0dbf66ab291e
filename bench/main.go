// Command bench is openbi's benchmark. One run measures one workload for a
// fixed window and prints every metric by name with its unit, then, as the
// last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the run treats openbi as a black box: it drives the CLI and
// a separate `openbi serve` process over loopback HTTP and reports the
// end-to-end metrics BENCHMARK.json lists. With -trace 1 it instead calls
// the public functions of each module in-process on the same generated
// inputs, records a span around every call, writes the spans to
// <out>/trace.json and reports the per-layer metrics. Both modes check the
// program's outputs (see README.md for the gates) and append their full
// result to <out>/results.jsonl, which `bench compare` reads.
//
// Run it through bench/run.sh from the repository root, which builds the
// openbi CLI and this program first:
//
//	bash bench/run.sh --workload grid --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh compare base.jsonl new.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// deriveSubcommand makes this program write an export's Turtle and
// tripled copies; the end-to-end ingest run calls it as a child process.
const deriveSubcommand = "derive-sources"

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	openbi   string // CLI binary built from the tree under test
	work     string // scratch directory for generated inputs and outputs
	out      string // results.jsonl and trace.json
	spec     string // BENCHMARK.json
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// environment is recorded with every result, so runs from different
// machines or toolchains are never compared unawares.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	CPU        string `json:"cpu"`
	Platform   string `json:"platform"`
}

func currentEnvironment() environment {
	env := environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

// result is the line the benchmark contract reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one run as appended to results.jsonl: the result plus every
// metric the run measured, its flags and the environment.
type record struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Trace    int         `json:"trace"`
	Seconds  int         `json:"seconds"`
	Start    time.Time   `json:"start"`
	Env      environment `json:"env"`
	result
	Detail   map[string]metric `json:"detail"`
	Flags    []string          `json:"flags,omitempty"`
	Problems []string          `json:"problems,omitempty"`
}

// bench is one run in progress.
type bench struct {
	opts     options
	detail   map[string]metric
	flags    []string
	problems []string
	attempts int
	failures int
}

// set records a measured metric.
func (b *bench) set(name, unit string, v float64) { b.detail[name] = metric{Value: v, Unit: unit} }

// flag notes a measurement that is valid but outside its expected range.
func (b *bench) flag(format string, args ...any) {
	b.flags = append(b.flags, fmt.Sprintf(format, args...))
}

// record counts one attempted operation; a non-nil err (a non-zero exit, a
// non-2xx reply, a transport error or a correctness mismatch) counts it as
// failed. It reports whether the operation succeeded.
func (b *bench) record(err error) bool {
	return b.recordN(1, err)
}

// recordN counts n attempted operations of which the one that returned err
// (if any) failed.
func (b *bench) recordN(n int, err error) bool {
	b.attempts += n
	if err != nil {
		b.failures++
		b.problems = appendProblems(b.problems, err.Error())
		return false
	}
	return true
}

// addLoad folds a load generator's request counts into the run's tally.
func (b *bench) addLoad(st *loadStats) {
	b.attempts += st.attempted
	b.failures += st.failed
	b.problems = appendProblems(b.problems, st.problems...)
}

// window is a run's measurement window: operations continue while one more
// of typical duration still fits, and at least min of them run.
type window struct {
	start time.Time
	d     time.Duration
	min   int
}

func (b *bench) window(min int) window {
	return window{start: time.Now(), d: time.Duration(b.opts.seconds) * time.Second, min: min}
}

func (w window) more(done int, typicalSeconds float64) bool {
	if done < w.min {
		return true
	}
	return time.Since(w.start)+time.Duration(typicalSeconds*float64(time.Second)) <= w.d
}

// selfCPU is the CPU time this process has used so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "grid | ingest | advise-hot | advise-cold")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 20, "measurement window of one run, in seconds")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics from the CLI and serve process; 1: per-layer metrics from a traced in-process run")
	flag.StringVar(&o.openbi, "openbi", "", "openbi binary built from the tree under test")
	flag.StringVar(&o.work, "work", "", "scratch directory for generated inputs and program outputs")
	flag.StringVar(&o.out, "out", "bench/out", "directory for results.jsonl and trace.json")
	flag.StringVar(&o.spec, "spec", "BENCHMARK.json", "benchmark definition: metric names, units and bounds")
	flag.Parse()
	switch flag.Arg(0) {
	case "compare":
		os.Exit(compareMain(o.spec, flag.Args()[1:]))
	case deriveSubcommand:
		if err := writeDerived(flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// run measures one workload, prints the report and the result line, and
// returns an error when the run could not measure or an operation failed.
func run(o options) error {
	spec, err := loadSpec(o.spec)
	if err != nil {
		return err
	}
	known := false
	for _, w := range spec.Workloads {
		known = known || w.Name == o.workload
	}
	if !known || flag.NArg() > 0 {
		return fmt.Errorf("usage: bench -workload <name> -seed N -seconds S -trace 0|1; workloads are listed in %s", o.spec)
	}
	if o.openbi == "" || o.work == "" || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		return errors.New("-openbi and -work are required, -seconds must be positive and -trace 0 or 1")
	}
	o.work = filepath.Join(o.work, o.workload)
	if err := os.RemoveAll(o.work); err != nil {
		return err
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	b := &bench{opts: o, detail: map[string]metric{}}
	rec := record{Workload: o.workload, Seed: o.seed, Trace: o.trace, Seconds: o.seconds,
		Start: time.Now().UTC(), Env: currentEnvironment()}
	wanted := spec.EndToEnd
	if o.trace == 1 {
		wanted = spec.PerLayer
		err = b.traceRun()
	} else {
		err = b.e2eRun()
	}
	if err != nil {
		return err
	}
	b.set("fail_ratio", "ratio", float64(b.failures)/float64(max(b.attempts, 1)))
	rec.result = result{Correct: b.failures == 0, Attempted: b.attempts, Failed: b.failures, Metrics: map[string]metric{}}
	for _, m := range wanted {
		got, ok := b.detail[m.Name]
		if !ok {
			return fmt.Errorf("workload %s measured no %s", o.workload, m.Name)
		}
		if got.Unit != m.Unit {
			return fmt.Errorf("%s is measured in %s but %s says %s", m.Name, got.Unit, o.spec, m.Unit)
		}
		rec.Metrics[m.Name] = got
	}
	rec.Detail, rec.Flags, rec.Problems = b.detail, b.flags, b.problems
	printReport(&rec)
	if err := appendJSONL(filepath.Join(o.out, "results.jsonl"), &rec); err != nil {
		return err
	}
	line, err := json.Marshal(rec.result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rec.Correct {
		return fmt.Errorf("%d of %d operations failed", b.failures, b.attempts)
	}
	return nil
}

// printReport prints every measured metric with its unit, then any flags
// and failures.
func printReport(rec *record) {
	mode := "end-to-end"
	if rec.Trace == 1 {
		mode = "traced"
	}
	fmt.Printf("openbi benchmark: workload %s, seed %d, %ds window, %s run\n", rec.Workload, rec.Seed, rec.Seconds, mode)
	fmt.Printf("environment: nproc %d, GOMAXPROCS %d, %s, %s, %s\n",
		rec.Env.NumCPU, rec.Env.GOMAXPROCS, rec.Env.GoVersion, rec.Env.Platform, rec.Env.CPU)
	names := make([]string, 0, len(rec.Detail))
	for n := range rec.Detail {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Detail[n]
		marker := " "
		if _, ok := rec.Metrics[n]; ok {
			marker = "*"
		}
		fmt.Printf("%s %-40s %14.6g %s\n", marker, n, m.Value, m.Unit)
	}
	fmt.Println("(* = reported to the benchmark contract)")
	for _, f := range rec.Flags {
		fmt.Println("flag:", f)
	}
	for _, p := range rec.Problems {
		fmt.Println("failure:", p)
	}
	fmt.Printf("operations: %d attempted, %d failed\n", rec.Attempted, rec.Failed)
}

func appendJSONL(path string, v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
