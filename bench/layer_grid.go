package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"openbi/internal/core"
	"openbi/internal/dq"
	"openbi/internal/eval"
	"openbi/internal/experiment"
	"openbi/internal/inject"
	"openbi/internal/kb"
	"openbi/internal/mining"
	"openbi/internal/synth"
	"openbi/internal/table"
)

// makeReference generates the reference dataset `openbi experiments`
// builds from, and returns a constructor of fresh Dataset wrappers over it,
// so that no build reuses the column index another one cached.
func makeReference(rows int, seed int64) (func() *mining.Dataset, error) {
	ds, err := synth.MakeClassification(synth.ClassificationSpec{Rows: rows, Seed: seed})
	if err != nil {
		return nil, err
	}
	return func() *mining.Dataset { return mining.MustNewDataset(ds.T, ds.ClassCol) }, nil
}

// gridStages is the time a replayed grid spent in each module.
type gridStages struct {
	inject, measure, index, snapshot, predict, save, manifest time.Duration
	cv                                                        map[string]time.Duration // by algorithm
}

// replayGrid makes the module calls experiment.Phase1 and Phase2 make on
// one worker, in the same order, and times each: prepare every Phase-1
// cell (inject, wrap, measure), index the cells, cross-validate every
// algorithm on every cell, snapshot the Phase-1 records, then for every
// algorithm and Phase-2 combination inject, wrap, cross-validate, measure
// and predict; finally save the KB and build its manifest. Only the timing
// matters: seeds are derived locally, so the KB it saves is not the golden
// one.
func replayGrid(tr *tracer, ds *mining.Dataset, folds int, seed int64) (gridStages, error) {
	st := gridStages{cv: map[string]time.Duration{}}
	var err error
	step := func(dst *time.Duration, name string, fn func() error) {
		if err != nil {
			return
		}
		var d time.Duration
		d, err = tr.time(name, fn)
		*dst += d
	}
	classOpts := dq.MeasureOptions{ClassColumn: ds.ClassCol}
	type cell struct {
		criterion string
		severity  float64
		ds        *mining.Dataset
		measured  float64
	}
	cleanMeasures := map[string]float64{}
	step(&st.measure, "dq.measure", func() error {
		p := dq.Measure(ds.Table(), classOpts)
		for _, c := range dq.AllCriteria() {
			cleanMeasures[c.String()] = p.Severity(c)
		}
		return nil
	})
	cells := []*cell{{criterion: "clean", ds: ds}}
	for _, c := range dq.AllCriteria() {
		for _, sev := range []float64{0.1, 0.2, 0.3, 0.4, 0.5} {
			cl := &cell{criterion: c.String(), severity: sev}
			var corrupted *table.Table
			step(&st.inject, "inject.apply", func() (err error) {
				corrupted, err = inject.Apply(ds.T, ds.ClassCol, []inject.Spec{{Criterion: c, Severity: sev}}, seed+int64(len(cells)))
				return err
			})
			step(&st.index, "mining.index", func() (err error) {
				cl.ds, err = mining.NewDataset(corrupted, ds.ClassCol)
				return err
			})
			step(&st.measure, "dq.measure", func() error {
				cl.measured = dq.Measure(corrupted, classOpts).Severity(c)
				return nil
			})
			cells = append(cells, cl)
		}
	}
	for _, cl := range cells {
		step(&st.index, "mining.index", func() error { cl.ds.Index(); return nil })
	}
	if err != nil {
		return st, err
	}

	suite := mining.StandardSuite(seed)
	arena := mining.NewArena()
	var records []kb.Record
	for _, alg := range mining.SuiteNames() {
		cv := st.cv[alg]
		for i, cl := range cells {
			rec := kb.Record{Algorithm: alg, Criterion: cl.criterion, Severity: cl.severity,
				MeasuredSeverity: cl.measured, Dataset: "reference", Folds: folds}
			if i == 0 {
				rec.MeasuredAll = cleanMeasures
			}
			step(&cv, "mining.cv."+alg, func() (err error) {
				rec.Metrics, err = eval.CrossValidateWith(suite[alg], cl.ds, folds, seed+int64(i), arena)
				return err
			})
			records = append(records, rec)
		}
		st.cv[alg] = cv
	}
	var base *kb.Snapshot
	step(&st.snapshot, "kb.snapshot", func() error {
		base = (&kb.KnowledgeBase{Records: records}).Snapshot()
		return nil
	})
	if err != nil {
		return st, err
	}

	for _, alg := range mining.SuiteNames() {
		cv := st.cv[alg]
		for j, combo := range core.DefaultCombos() {
			specs := make([]inject.Spec, len(combo))
			names := make([]string, len(combo))
			for k, c := range combo {
				specs[k] = inject.Spec{Criterion: c, Severity: mixedSeverity}
				names[k] = c.String()
			}
			rec := kb.Record{Algorithm: alg, Criterion: strings.Join(names, "+"), Severity: mixedSeverity,
				Dataset: "reference", Mixed: true, Folds: folds}
			var corrupted *table.Table
			var mixed *mining.Dataset
			var sev []float64
			step(&st.inject, "inject.apply", func() (err error) {
				corrupted, err = inject.Apply(ds.T, ds.ClassCol, specs, seed+int64(j))
				return err
			})
			step(&st.index, "mining.index", func() (err error) {
				mixed, err = mining.NewDataset(corrupted, ds.ClassCol)
				return err
			})
			step(&cv, "mining.cv."+alg, func() (err error) {
				rec.Metrics, err = eval.CrossValidateWith(suite[alg], mixed, folds, seed+int64(j), arena)
				return err
			})
			step(&st.measure, "dq.measure", func() error {
				sev = dq.Measure(corrupted, classOpts).Severities()
				return nil
			})
			step(&st.predict, "kb.predict", func() error { base.PredictKappa(alg, sev); return nil })
			records = append(records, rec)
		}
		st.cv[alg] = cv
	}
	var doc []byte
	step(&st.save, "kb.save", func() (err error) {
		doc, err = saveKB(records)
		return err
	})
	step(&st.manifest, "provenance.manifest", func() error {
		_, err := kb.BuildManifest(doc, &kb.KnowledgeBase{Records: records})
		return err
	})
	return st, err
}

// mixedSeverity is the Phase-2 severity core.Engine uses.
const mixedSeverity = 0.3

// buildGrid does what core.Engine.RunExperiments does: Phase 1, a snapshot
// of its records, Phase 2 predicted from that snapshot.
func buildGrid(ctx context.Context, cfg experiment.Config, ds *mining.Dataset) ([]kb.Record, error) {
	p1, err := experiment.Phase1(ctx, cfg, ds, "reference")
	if err != nil {
		return nil, err
	}
	base := (&kb.KnowledgeBase{Records: p1}).Snapshot()
	_, p2, err := experiment.Phase2(ctx, cfg, ds, "reference", base, core.DefaultCombos(), mixedSeverity)
	if err != nil {
		return nil, err
	}
	return append(append([]kb.Record(nil), p1...), p2...), nil
}

// gridOp builds one knowledge base three ways: experiment.Phase1 and Phase2
// on one worker (the reference the stages must account for), the same on
// every core (determinism and parallel efficiency), and a stage-by-stage
// replay of the same grid on one worker that times each module call. It
// returns the serial build's KB document.
func gridOp(ctx context.Context, tr *tracer, rows, folds int, seed int64) (opMetrics, []byte, error) {
	m := opMetrics{}
	src, err := makeReference(rows, seed)
	if err != nil {
		return m, nil, err
	}
	cfg := experiment.Config{Folds: folds, Seed: seed, Workers: 1}
	var serialRecs, parallelRecs []kb.Record
	serial, err := tr.time("experiment.serial", func() (err error) {
		serialRecs, err = buildGrid(ctx, cfg, src())
		return err
	})
	if err != nil {
		return m, nil, err
	}
	cfg.Workers = 0
	parallel, err := tr.time("experiment.parallel", func() (err error) {
		parallelRecs, err = buildGrid(ctx, cfg, src())
		return err
	})
	if err != nil {
		return m, nil, err
	}
	doc, err := saveKB(serialRecs)
	if err != nil {
		return m, nil, err
	}
	if par, err := saveKB(parallelRecs); err != nil || !bytes.Equal(doc, par) {
		return m, doc, fmt.Errorf("grid (%d rows, seed %d): the all-core KB differs from the one-worker KB", rows, seed)
	}
	m.set("experiment.serial_s", "s", serial.Seconds())
	m.set("experiment.parallel_efficiency", "ratio", serial.Seconds()/(parallel.Seconds()*float64(runtime.GOMAXPROCS(0))))
	m.set("experiment.tasks", "count", float64(len(serialRecs)))

	st, err := replayGrid(tr, src(), folds, seed)
	if err != nil {
		return m, doc, err
	}
	covered := st.inject + st.measure + st.index + st.snapshot + st.predict
	for alg, d := range st.cv {
		m.set("mining.cv_s."+alg, "s", d.Seconds())
		covered += d
	}
	m.set("experiment.stage_coverage", "ratio", covered.Seconds()/serial.Seconds())
	m.set("inject.apply_s", "s", st.inject.Seconds())
	m.set("dq.measure_s", "s", st.measure.Seconds())
	m.set("mining.index_s", "s", st.index.Seconds())
	m.set("kb.snapshot_s", "s", st.snapshot.Seconds())
	m.set("kb.save_s", "s", st.save.Seconds())
	m.set("provenance.manifest_s", "s", st.manifest.Seconds())
	return m, doc, nil
}
