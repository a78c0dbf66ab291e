package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"time"

	"openbi/internal/core"
	"openbi/internal/cwm"
	"openbi/internal/dq"
	"openbi/internal/eval"
	"openbi/internal/mining"
	"openbi/internal/rdf"
	"openbi/internal/table"
)

// chunk is how many streamed triples are handed to the sketch and the
// projector per timed call: large enough that a span costs nothing next to
// the work, small enough to hold no meaningful memory.
const chunk = 4096

// shareBase is the base IRI `openbi mine` shares predictions under.
const shareBase = "http://openbi.example.org/"

// ingestOutcome is what one onboarding round produced, for the
// consistency gates.
type ingestOutcome struct {
	csvSHA256 string // the projected table, identical for every source
	mined     string // algorithm and kappa, identical for every source
}

func formatOf(s source) string {
	if s.kind == "ttl" {
		return "ttl"
	}
	return "nt"
}

// ingestOp onboards every source once, along both of openbi's paths.
//
// Stream path (`openbi ingest`): rdf.Stream alone with a no-op callback,
// then the stream feeding the LOD sketch and the projector chunk by chunk,
// then the CSV writer, against core.IngestLOD plus the CSV writer as the
// reference.
//
// Mine path (`openbi mine`): KB load, the batch reader and projection, the
// profile, the CWM catalog, advice, the hold-out evaluation, the refit that
// produces the shared predictions, the shared graph and the source hash,
// against the calls `openbi mine` makes as the reference.
func ingestOp(ctx context.Context, tr *tracer, srcs []source, kbDoc []byte) (opMetrics, ingestOutcome, error) {
	m := opMetrics{}
	var out ingestOutcome
	var decodeAlloc, triples uint64
	var sketch, project, write, streamRef, decodeAll time.Duration
	var mine mineStages
	for _, s := range srcs {
		d, alloc, n, err := decodeOnly(tr, s)
		if err != nil {
			return m, out, err
		}
		if n != s.triples {
			return m, out, fmt.Errorf("%s: rdf.Stream decoded %d triples, the file holds %d", s.kind, n, s.triples)
		}
		m.set("rdf.decode_s."+s.kind, "s", d.Seconds())
		decodeAll += d
		decodeAlloc += alloc
		triples += uint64(n)

		staged, err := streamStaged(tr, s, &sketch, &project, &write)
		if err != nil {
			return m, out, err
		}
		var reference []byte
		d, err = tr.time("core.ingest_lod."+s.kind, func() error {
			f, err := os.Open(s.path)
			if err != nil {
				return err
			}
			defer f.Close()
			ing, err := core.IngestLOD(f, formatOf(s), rdf.ProjectOptions{LargestClass: true})
			if err != nil {
				return err
			}
			var buf bytes.Buffer
			err = table.WriteCSV(&buf, ing.Table)
			reference = buf.Bytes()
			return err
		})
		if err != nil {
			return m, out, err
		}
		streamRef += d
		if !bytes.Equal(staged, reference) {
			return m, out, fmt.Errorf("%s: the staged stream projection differs from core.IngestLOD's", s.kind)
		}
		if err := sameAs(&out.csvSHA256, sha256Hex(reference), "projected CSV sha256 ("+s.kind+")"); err != nil {
			return m, out, err
		}

		mined, err := mineStaged(ctx, tr, s, kbDoc, &mine)
		if err != nil {
			return m, out, err
		}
		if err := sameAs(&out.mined, mined, "mined algorithm and kappa ("+s.kind+")"); err != nil {
			return m, out, err
		}
	}
	m.set("dq.sketch_s", "s", sketch.Seconds())
	m.set("rdf.project_s", "s", project.Seconds())
	m.set("table.write_csv_s", "s", write.Seconds())
	m.set("rdf.alloc_b_per_triple", "B", float64(decodeAlloc)/float64(triples))
	m.set("rdf.stage_coverage", "ratio", (decodeAll+sketch+project+write).Seconds()/streamRef.Seconds())
	mine.report(m, len(srcs))
	return m, out, nil
}

// decodeOnly times rdf.Stream with a no-op callback and the bytes it
// allocates.
func decodeOnly(tr *tracer, s source) (time.Duration, uint64, int, error) {
	f, err := os.Open(s.path)
	if err != nil {
		return 0, 0, 0, err
	}
	defer f.Close()
	n := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d, err := tr.time("rdf.decode."+s.kind, func() error {
		return rdf.Stream(f, formatOf(s), func(rdf.Triple) error { n++; return nil })
	})
	runtime.ReadMemStats(&after)
	return d, after.TotalAlloc - before.TotalAlloc, n, err
}

// streamStaged is core.IngestLOD plus the CSV writer with each stage timed:
// the decoder's own time is the self time of the ingest.stream span, the
// sketch and the projector get one span per chunk of triples.
func streamStaged(tr *tracer, s source, sketch, project, write *time.Duration) ([]byte, error) {
	f, err := os.Open(s.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sk := dq.NewLODSketch()
	proj, err := rdf.NewProjector(rdf.ProjectOptions{LargestClass: true})
	if err != nil {
		return nil, err
	}
	buf := make([]rdf.Triple, 0, chunk)
	flush := func() error {
		d, err := tr.time("dq.sketch", func() error {
			for _, t := range buf {
				if err := sk.Add(t); err != nil {
					return err
				}
			}
			return nil
		})
		*sketch += d
		if err != nil {
			return err
		}
		d, err = tr.time("rdf.project", func() error {
			for _, t := range buf {
				if err := proj.Add(t); err != nil {
					return err
				}
			}
			return nil
		})
		*project += d
		buf = buf[:0]
		return err
	}
	var tbl *table.Table
	root := tr.begin("ingest.stream." + s.kind)
	err = rdf.Stream(f, formatOf(s), func(t rdf.Triple) error {
		buf = append(buf, t)
		if len(buf) == chunk {
			return flush()
		}
		return nil
	})
	if err == nil {
		err = flush()
	}
	if err == nil {
		var d time.Duration
		d, err = tr.time("rdf.project", func() (err error) {
			tbl, err = proj.Table()
			return err
		})
		*project += d
		d, _ = tr.time("dq.sketch", func() error { sk.Profile(); return nil })
		*sketch += d
	}
	tr.finish(root)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.kind, err)
	}
	var csv bytes.Buffer
	d, err := tr.time("table.write_csv", func() error { return table.WriteCSV(&csv, tbl) })
	*write += d
	return csv.Bytes(), err
}

// mineStages accumulates the mine path's stage times over a round.
type mineStages struct {
	loadKB, readGraph, projectGraph, profile, catalog, advise, dataset, split,
	holdout, refit, share, sourceHash, reference time.Duration
	advises int
}

func (ms *mineStages) report(m opMetrics, sources int) {
	m.set("kb.load_s", "s", ms.loadKB.Seconds())
	m.set("rdf.read_graph_s", "s", ms.readGraph.Seconds())
	m.set("rdf.project_graph_s", "s", ms.projectGraph.Seconds())
	m.set("dq.profile_s", "s", ms.profile.Seconds())
	m.set("cwm.catalog_s", "s", ms.catalog.Seconds())
	m.set("kb.advise_profile_us", "us", ms.advise.Seconds()*1e6/float64(max(ms.advises, 1)))
	m.set("eval.holdout_s", "s", ms.holdout.Seconds())
	m.set("mining.refit_s", "s", ms.refit.Seconds())
	m.set("rdf.share_s", "s", ms.share.Seconds())
	m.set("core.source_hash_s", "s", ms.sourceHash.Seconds())
	staged := ms.loadKB + ms.readGraph + ms.projectGraph + ms.profile + ms.catalog + ms.advise +
		ms.dataset + ms.split + ms.holdout + ms.refit + ms.share + ms.sourceHash
	m.set("core.stage_coverage", "ratio", staged.Seconds()/ms.reference.Seconds())
}

// mineStaged runs `openbi mine`'s work twice: as the CLI does it (the
// reference: core.Engine.LoadKB, core.IngestFile, Advisor.MineWithAdvice,
// rdf.WriteNTriples), then stage by stage the way MineWithAdvice does it.
// Both must pick the same algorithm and measure the same kappa.
func mineStaged(ctx context.Context, tr *tracer, s source, kbDoc []byte, st *mineStages) (string, error) {
	var ref *core.MiningResult
	d, err := tr.time("core.mine."+s.kind, func() error {
		eng, err := core.New(core.WithSeed(1))
		if err != nil {
			return err
		}
		if err := eng.LoadKB(bytes.NewReader(kbDoc)); err != nil {
			return err
		}
		t, err := core.IngestFile(s.path)
		if err != nil {
			return err
		}
		adv, err := eng.Advisor()
		if err != nil {
			return err
		}
		if ref, err = adv.MineWithAdvice(ctx, t, classColumn, shareBase); err != nil {
			return err
		}
		var buf bytes.Buffer
		return rdf.WriteNTriples(&buf, ref.Shared)
	})
	if err != nil {
		return "", fmt.Errorf("%s: mine: %w", s.kind, err)
	}
	st.reference += d

	step := func(dst *time.Duration, name string, fn func() error) {
		if err != nil {
			return
		}
		var d time.Duration
		d, err = tr.time(name, fn)
		*dst += d
	}
	var eng *core.Engine
	var g *rdf.Graph
	var t *table.Table
	var profile dq.Profile
	var best string
	var factory mining.Factory
	var ds, train, test *mining.Dataset
	var testRows []int
	var kappa float64
	var pred *table.Column
	step(&st.loadKB, "kb.load", func() (err error) {
		if eng, err = core.New(core.WithSeed(1)); err == nil {
			err = eng.LoadKB(bytes.NewReader(kbDoc))
		}
		return err
	})
	step(&st.readGraph, "rdf.read_graph", func() error {
		f, err := os.Open(s.path)
		if err != nil {
			return err
		}
		defer f.Close()
		if formatOf(s) == "ttl" {
			g, err = rdf.ReadTurtle(f)
		} else {
			g, err = rdf.ReadNTriples(f)
		}
		return err
	})
	step(&st.projectGraph, "rdf.project_graph", func() (err error) {
		t, err = core.ProjectLargestClass(g)
		return err
	})
	step(&st.profile, "dq.profile", func() (err error) {
		profile, err = core.ProfileTable(t, classColumn, nil)
		return err
	})
	step(&st.catalog, "cwm.catalog", func() error {
		catalog := cwm.CatalogFromTable(t, "openbi")
		dq.Annotate(catalog.Table(t.Name), profile)
		return nil
	})
	step(&st.advise, "kb.advise_profile", func() error {
		advice, err := eng.KB().Advise(profile)
		best = advice.Best().Algorithm
		return err
	})
	st.advises++
	step(&st.dataset, "mining.dataset", func() (err error) {
		if factory, err = mining.Lookup(best, 1); err == nil {
			ds, err = mining.NewDatasetByName(t, classColumn)
		}
		return err
	})
	step(&st.split, "eval.split", func() error {
		trainRows, rows, err := eval.TrainTestSplit(ds, 0.3, 1)
		train, test, testRows = ds.Subset(trainRows), ds.Subset(rows), rows
		return err
	})
	step(&st.holdout, "eval.holdout", func() error {
		metrics, _, err := eval.Holdout(factory, train, test)
		kappa = metrics.Kappa
		return err
	})
	step(&st.refit, "mining.refit", func() error {
		clf := factory()
		if err := clf.Fit(train); err != nil {
			return err
		}
		pred = table.NewNominalColumn("predicted_" + classColumn)
		for r := 0; r < test.Len(); r++ {
			pred.AppendLabel(test.ClassName(clf.Predict(test, r)))
		}
		return nil
	})
	step(&st.share, "rdf.share", func() error {
		shared := t.SelectRows(testRows)
		shared.MustAddColumn(pred)
		var buf bytes.Buffer
		return rdf.WriteNTriples(&buf, rdf.TableToGraph(shared, shareBase, t.Name))
	})
	step(&st.sourceHash, "core.source_hash", func() error { return table.WriteCSV(sha256.New(), t) })
	if err != nil {
		return "", fmt.Errorf("%s: staged mine: %w", s.kind, err)
	}
	if best != ref.Algorithm || kappa != ref.Metrics.Kappa {
		return "", fmt.Errorf("%s: staged mine chose %s (kappa %v), MineWithAdvice %s (kappa %v)",
			s.kind, best, kappa, ref.Algorithm, ref.Metrics.Kappa)
	}
	return fmt.Sprintf("%s kappa %v", ref.Algorithm, ref.Metrics.Kappa), nil
}
