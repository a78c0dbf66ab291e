package main

// The traced run: the same kinds of work as the end-to-end workloads, done
// by calling openbi's modules in-process with a span around every call.
//
// There are three kinds of operation — a grid build, the onboarding of a
// round of sources, and a stream of advise requests — and each reports its
// own per-layer metrics. A run first does all three at golden size, which
// doubles as the correctness gates, then repeats its workload's kind at
// full size for the window. Metrics of the workload's kind come from the
// repeated operations (median over them); the others come from the golden
// pass, so every workload reports every per-layer metric and a layer the
// workload bypasses shows its small golden-size cost.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"openbi/internal/kb"
)

type opMetrics map[string]metric

func (m opMetrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// coverageFloor is where a stage sum stops accounting for its reference
// call: below it the report flags the gap.
const coverageFloor = 0.9

// coverageOf lists the stage coverages each workload's operations report.
var coverageOf = map[string][]string{
	"grid":        {"experiment.stage_coverage"},
	"ingest":      {"rdf.stage_coverage", "core.stage_coverage"},
	"advise-hot":  {"server.stage_coverage"},
	"advise-cold": {"server.stage_coverage"},
}

func (b *bench) traceRun() error {
	ctx := context.Background()
	tr := newTracer(b.opts.workload)

	gate := tr.begin("gate")
	gridM, kbDoc, err := gridOp(ctx, tr, 120, 3, 42)
	if err == nil && sha256Hex(kbDoc) != goldenKBSHA256 {
		err = fmt.Errorf("in-process golden KB: sha256 %s, want %s", sha256Hex(kbDoc), goldenKBSHA256)
	}
	if !b.record(err) && kbDoc == nil {
		return err
	}
	kbPath := filepath.Join(b.opts.work, "kb.json")
	if err := writeKB(kbPath, kbDoc); err != nil {
		return err
	}
	goldenNT := filepath.Join(b.opts.work, "golden-200.nt")
	if err := writeMunicipal(goldenNT, 200, 42); err != nil {
		return err
	}
	if err := writeDerived(goldenNT); err != nil {
		return err
	}
	goldenSrcs, err := sources(goldenNT)
	if err != nil {
		return err
	}
	ingestM, goldenOut, err := ingestOp(ctx, tr, goldenSrcs, kbDoc)
	if err == nil && goldenOut.csvSHA256 != goldenCSVSHA256 {
		err = fmt.Errorf("in-process golden projected CSV: sha256 %s, want %s", goldenOut.csvSHA256, goldenCSVSHA256)
	}
	b.record(err)
	adviseM, n, err := adviseOp(tr, kbPath, adviseRun{
		next:        hotStream(hotProfileSet(42, 16), 42, 0),
		maxRequests: 200,
		reloadEvery: 20 * time.Millisecond,
	})
	b.recordN(max(n, 1), err)
	tr.finish(gate)

	loop := tr.begin("loop")
	calls0, cpu0, alloc0 := tr.calls, selfCPU(), totalAlloc()
	t0 := time.Now()
	var ops int
	switch b.opts.workload {
	case "grid":
		var runs []opMetrics
		seeds := gridSeedsOf(b.opts.seed)
		for w, n := b.window(1), 0; w.more(n, mean(pick(runs, "experiment.serial_s"))*2.5); n++ {
			m, _, err := gridOp(ctx, tr, gridRows, gridFolds, seeds[n%len(seeds)])
			if b.record(err) {
				runs = append(runs, m)
			}
		}
		gridM, ops = medianOf(runs), len(runs)
	case "ingest":
		nt := filepath.Join(b.opts.work, "source.nt")
		if err := writeMunicipal(nt, sourceEntities, b.opts.seed); err != nil {
			return err
		}
		if err := writeDerived(nt); err != nil {
			return err
		}
		srcs, err := sources(nt)
		if err != nil {
			return err
		}
		var runs []opMetrics
		var want string
		var rounds []float64
		for w := b.window(1); w.more(len(rounds), median(rounds)); {
			r0 := time.Now()
			m, out, err := ingestOp(ctx, tr, srcs, kbDoc)
			if err == nil {
				err = sameAs(&want, out.csvSHA256+" "+out.mined, "projected CSV and mined result")
			}
			if b.record(err) {
				runs = append(runs, m)
			}
			rounds = append(rounds, time.Since(r0).Seconds())
		}
		ingestM, ops = medianOf(runs), len(runs)
	default:
		run := adviseRun{until: time.Now().Add(time.Duration(b.opts.seconds) * time.Second)}
		if b.opts.workload == "advise-hot" {
			run.next = hotStream(hotProfileSet(b.opts.seed, hotProfiles), b.opts.seed, 0)
		} else {
			run.next, run.reloadEvery = coldStream(b.opts.seed, 0), reloadEvery
		}
		var m opMetrics
		m, ops, err = adviseOp(tr, kbPath, run)
		b.recordN(max(ops, 1), err)
		for name, v := range m {
			adviseM[name] = v // kinds of request the loop never saw keep their golden values
		}
	}
	elapsed := time.Since(t0)
	loopCalls, cpu, alloc := tr.calls-calls0, selfCPU()-cpu0, totalAlloc()-alloc0
	tr.finish(loop)
	if ops == 0 {
		return errors.New("the traced loop completed no operation")
	}

	for _, m := range []opMetrics{gridM, ingestM, adviseM} {
		for name, v := range m {
			b.detail[name] = v
		}
	}
	cost := spanCost()
	b.set("process.cpu_s", "s", cpu.Seconds()/float64(ops))
	b.set("process.alloc_mb", "MB", float64(alloc)/(1<<20)/float64(ops))
	b.set("trace.ops", "count", float64(ops))
	b.set("trace.spans", "count", float64(tr.calls))
	b.set("trace.overhead_ratio", "ratio", cost.Seconds()*float64(loopCalls)/elapsed.Seconds())
	// Coverage is judged on the workload's own operations; the golden-size
	// values of the other kinds are too small to account for reliably.
	for _, name := range coverageOf[b.opts.workload] {
		if v := b.detail[name].Value; v < coverageFloor {
			why := ""
			if name == "server.stage_coverage" {
				why = "; the rest of a miss is the batcher's wait (server.batch_wait_us), which no public function exposes, so it is derived rather than measured"
			}
			b.flag("%s %.3f < %.1f: the timed stages do not account for the reference call%s", name, v, coverageFloor, why)
		}
	}

	self := tr.selfTimes()
	printSelfTimes(self)
	return tr.write(filepath.Join(b.opts.out, "trace.json"), b.opts.seed, cost, self)
}

// printSelfTimes prints self time per layer, then per span name.
func printSelfTimes(self map[string]int64) {
	byLayer := map[string]int64{}
	var names []string
	for name, ns := range self {
		byLayer[layerOf(name)] += ns
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	layers := make([]string, 0, len(byLayer))
	for l := range byLayer {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return byLayer[layers[i]] > byLayer[layers[j]] })
	fmt.Println("self time by layer (whole traced run):")
	for _, l := range layers {
		fmt.Printf("  %-14s %10.3f s\n", l, float64(byLayer[l])/1e9)
	}
	fmt.Println("self time by span:")
	for _, n := range names {
		fmt.Printf("  %-34s %10.3f s\n", n, float64(self[n])/1e9)
	}
}

func pick(runs []opMetrics, name string) []float64 {
	var out []float64
	for _, r := range runs {
		out = append(out, r[name].Value)
	}
	return out
}

// medianOf reduces repeated operations to the median of each metric.
func medianOf(runs []opMetrics) opMetrics {
	out := opMetrics{}
	if len(runs) == 0 {
		return out
	}
	for name, m := range runs[0] {
		out.set(name, m.Unit, median(pick(runs, name)))
	}
	return out
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func sha256Hex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// writeKB writes a KB and the provenance manifest `openbi experiments`
// writes beside it, so reloads verify it.
func writeKB(path string, doc []byte) error {
	base, err := kb.Load(bytes.NewReader(doc))
	if err != nil {
		return err
	}
	m, err := kb.BuildManifest(doc, base)
	if err != nil {
		return err
	}
	var mdoc bytes.Buffer
	if err := m.Save(&mdoc); err != nil {
		return err
	}
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		return err
	}
	return os.WriteFile(path+".manifest", mdoc.Bytes(), 0o644)
}

func saveKB(records []kb.Record) ([]byte, error) {
	var buf bytes.Buffer
	err := (&kb.KnowledgeBase{Records: records}).Save(&buf)
	return buf.Bytes(), err
}
