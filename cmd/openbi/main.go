// Command openbi is the user-facing entry point of the OpenBI
// reproduction: the tool a "non-expert data miner" drives. It covers the
// full pipeline of the paper — generate or ingest open data, profile its
// data quality, build the DQ4DM knowledge base, ask for algorithm advice,
// mine with the advised algorithm and share the result as LOD, and run
// OLAP reports.
//
// Usage:
//
//	openbi generate  -kind municipal -n 500 -dirty 0.2 -out data.nt
//	openbi profile   -in data.nt [-class fundingLevel] [-model model.xmi]
//	openbi ingest    -in data.nt [-format nt|ttl] [-class IRI] [-csv out.csv]   (streams; '-in -' reads stdin)
//	openbi experiments -rows 500 -workers 8 [-timeout 10m] [-progress] -out kb.json
//	openbi experiments -rows 500 -shard 0/2 -checkpoint ckpt/   (one resumable shard job)
//	openbi kb merge  -out kb.json [-key openbi.key] shard-0-of-2.json shard-1-of-2.json
//	openbi kb verify [-manifest kb.json.manifest] [-pub openbi.key.pub] kb.json
//	openbi kb keygen [-out openbi.key]
//	openbi advise    -in data.nt -class fundingLevel -kb kb.json
//	openbi mine      -in data.nt -class fundingLevel -kb kb.json -share out.nt [-timeout 1m]
//	openbi olap      -in data.nt -dims inRegion -measure avg:budgetEducationPerCapita
//	openbi validate  -kb kb.json -rows 400 -trials 10 [-timeout 5m]
//	openbi serve     -addr :8080 -kb kb.json [-cache 1024] [-batch-window 2ms] [-max-inflight 64] [-require-manifest] [-manifest-pub openbi.key.pub]
//	openbi loadgen   -target http://host:8080 -duration 10s -rps 200 -mix recorded [-out BENCH_serve.json]
//	openbi loadgen   -selfserve -kb kb.json -sweep -p99-budget 50ms   (saturation sweep, no setup)
//	openbi replay    -capture captures/loadgen-recorded-seed1.jsonl -selfserve -kb new-kb.json -fail-on-diff
//	openbi replay    -capture c.jsonl -selfserve -kb old.json -against-kb new.json   (two-sided KB diff)
//
// experiments, mine and validate honour ^C (SIGINT) and -timeout:
// cancellation takes effect between experiment grid cells; with
// -checkpoint, a killed experiments run resumes mid-grid on the next
// invocation. Sharded runs write shard files whose deterministic merge
// (openbi kb merge) is byte-identical to the monolithic run. serve drains
// in-flight requests on SIGINT/SIGTERM before exiting.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"openbi/internal/clean"
	"openbi/internal/core"
	"openbi/internal/cwm"
	"openbi/internal/dq"
	"openbi/internal/experiment"
	"openbi/internal/kb"
	"openbi/internal/mining"
	"openbi/internal/olap"
	"openbi/internal/rdf"
	"openbi/internal/report"
	"openbi/internal/synth"
	"openbi/internal/table"
)

// runContext returns a context for one long-running command: canceled on
// SIGINT/SIGTERM (so ^C stops the experiment grid between cells instead of
// killing it mid-write) and, when timeout > 0, after the deadline.
func runContext(timeout time.Duration) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if timeout <= 0 {
		return ctx, stop
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	return ctx, func() { cancel(); stop() }
}

// explainRunError rewrites context terminations into actionable messages.
func explainRunError(err error) error {
	switch {
	case errors.Is(err, context.Canceled):
		return fmt.Errorf("interrupted (partial work discarded): %w", err)
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("-timeout exceeded before the run finished: %w", err)
	default:
		return err
	}
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "generate":
		err = cmdGenerate(os.Args[2:])
	case "profile":
		err = cmdProfile(os.Args[2:])
	case "ingest":
		err = cmdIngest(os.Args[2:])
	case "experiments":
		err = cmdExperiments(os.Args[2:])
	case "advise":
		err = cmdAdvise(os.Args[2:])
	case "mine":
		err = cmdMine(os.Args[2:])
	case "olap":
		err = cmdOLAP(os.Args[2:])
	case "repair":
		err = cmdRepair(os.Args[2:])
	case "validate":
		err = cmdValidate(os.Args[2:])
	case "kb":
		err = cmdKB(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "loadgen":
		err = cmdLoadgen(os.Args[2:])
	case "replay":
		err = cmdReplay(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "openbi: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "openbi:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `openbi - data-quality-aware mining for open data

commands:
  generate     synthesize an open-government LOD dataset (.nt) or CSV
  profile      measure data-quality criteria of a source; optionally emit a CWM model
  ingest       stream RDF (file or stdin) at constant memory: LOD profile + projected CSV
  experiments  run Phase 1 + Phase 2 and write the DQ4DM knowledge base
  advise       recommend a mining algorithm for a source ("the best option is ...")
  mine         train the advised algorithm and share predictions as LOD
  olap         roll up a source into an OLAP report
  repair       suggest and optionally apply a cleaning plan for a source
  validate     measure advisor hit-rate and regret on random corruption scenarios
  kb           knowledge-base utilities: "kb merge" recombines shard outputs,
               "kb verify" checks a KB against its provenance manifest,
               "kb keygen" makes an ed25519 manifest-signing keypair
  serve        run the HTTP advice service (batching, caching, hot KB reload)
  loadgen      load-test a serve instance: latency quantiles, throughput, saturation sweep
  replay       re-issue a recorded capture and report the blast radius of a KB or build change

scaling out:
  experiments -shard i/n -checkpoint dir   run one resumable shard of the grid
  kb merge -out kb.json shard-*.json       deterministically merge the shards

provenance:
  experiments and kb merge write <out>.manifest (merkle tree over the KB
  records); kb verify names the first corrupted record on any tampering,
  and serve -require-manifest refuses reloads that fail verification
`)
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	kind := fs.String("kind", "municipal", "municipal | airquality | education | classification")
	n := fs.Int("n", 500, "entities / rows")
	dirty := fs.Float64("dirty", 0, "LOD dirtiness in [0,1]")
	seed := fs.Int64("seed", 42, "random seed")
	out := fs.String("out", "", "output path (.nt for LOD kinds, .csv for classification)")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("generate: -out is required")
	}

	spec := synth.LODSpec{Entities: *n, Dirtiness: *dirty, Seed: *seed}
	switch *kind {
	case "municipal", "airquality", "education":
		var g *rdf.Graph
		var err error
		switch *kind {
		case "municipal":
			g, err = synth.MunicipalBudgetLOD(spec)
		case "airquality":
			g, err = synth.AirQualityLOD(spec)
		default:
			g, err = synth.EducationLOD(spec)
		}
		if err != nil {
			return err
		}
		if err := writeFileAtomic(*out, func(f *os.File) error {
			return rdf.WriteNTriples(f, g)
		}); err != nil {
			return err
		}
		fmt.Printf("wrote %d triples to %s\n", g.Len(), *out)
		return nil
	case "classification":
		ds, err := synth.MakeClassification(synth.ClassificationSpec{Rows: *n, Seed: *seed})
		if err != nil {
			return err
		}
		if err := writeFileAtomic(*out, func(f *os.File) error {
			return writeCSV(f, ds)
		}); err != nil {
			return err
		}
		fmt.Printf("wrote %d rows to %s\n", ds.Len(), *out)
		return nil
	default:
		return fmt.Errorf("generate: unknown kind %q", *kind)
	}
}

// cmdProfile prints the data-quality profile of one source and, with
// -model, writes its annotated CWM model. An RDF source (.nt or .ttl, in
// any case) also gets its graph-level LOD profile; one core.IngestLOD
// pass yields both that profile and the projected table.
func cmdProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	in := fs.String("in", "", "input file (.csv .xml .html .nt .ttl)")
	class := fs.String("class", "", "class column name (optional)")
	modelOut := fs.String("model", "", "write annotated CWM model here (.xmi or .json)")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("profile: -in is required")
	}

	// RDF inputs get the graph-level profile first — link problems are
	// invisible after projection.
	var tb *table.Table
	if format := rdf.FileFormat(*in); format != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		ing, err := core.IngestLOD(f, format, rdf.ProjectOptions{LargestClass: true})
		f.Close()
		if err != nil {
			return err
		}
		printLODProfile(ing.Profile)
		fmt.Println()
		tb = ing.Table
	} else {
		var err error
		if tb, err = core.IngestFile(*in); err != nil {
			return err
		}
	}
	m, err := core.BuildModel(tb, *class)
	if err != nil {
		return err
	}
	printProfile(tb.Name, m.Profile)

	if *modelOut != "" {
		if err := writeFileAtomic(*modelOut, func(f *os.File) error {
			if strings.EqualFold(filepath.Ext(*modelOut), ".json") {
				return cwm.WriteJSON(f, m.Catalog)
			}
			return cwm.WriteXMI(f, m.Catalog)
		}); err != nil {
			return err
		}
		fmt.Printf("annotated model written to %s\n", *modelOut)
	}
	return nil
}

func printProfile(name string, p dq.Profile) {
	t := report.NewTable(fmt.Sprintf("Data quality profile of %q (%d rows, %d attributes)",
		name, p.Rows, p.Attributes), "criterion", "measure", "severity")
	t.AddRowf("completeness", p.Completeness, p.Severity(dq.Completeness))
	t.AddRowf("duplicates", p.DuplicateRatio, p.Severity(dq.Duplicates))
	t.AddRowf("correlation", p.MeanAbsCorrelation, p.Severity(dq.Correlation))
	t.AddRowf("imbalance", 1-p.ClassBalance, p.Severity(dq.Imbalance))
	t.AddRowf("label-noise", p.NoiseEstimate, p.Severity(dq.LabelNoise))
	t.AddRowf("attribute-noise", p.OutlierRatio, p.Severity(dq.AttributeNoise))
	t.AddRowf("dimensionality", p.Dimensionality, p.Severity(dq.Dimensionality))
	t.Render(os.Stdout)
	if dom := p.DominantCriteria(0.1); len(dom) > 0 {
		names := make([]string, len(dom))
		for i, c := range dom {
			names[i] = c.String()
		}
		fmt.Printf("dominant problems: %s\n", strings.Join(names, ", "))
	}
}

func cmdExperiments(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	rows := fs.Int("rows", 500, "reference dataset rows")
	folds := fs.Int("folds", 5, "cross-validation folds")
	seed := fs.Int64("seed", 42, "random seed")
	workers := fs.Int("workers", 0, "parallel experiment workers (0 = all CPUs); results are identical for any value")
	timeout := fs.Duration("timeout", 0, "abort the run after this long (0 = no limit); ^C also cancels between cells")
	progress := fs.Bool("progress", false, "stream per-record progress to stderr")
	shard := fs.String("shard", "", "run one shard of the grid, as index/count with a 0-based index (e.g. 0/2); writes a shard file for `openbi kb merge` instead of a knowledge base")
	checkpoint := fs.String("checkpoint", "", "journal completed grid cells under this directory so a killed run resumes mid-grid")
	out := fs.String("out", "", "output path (default kb.json, or shard-<i>-of-<n>.json with -shard)")
	keyPath := fs.String("key", "", "ed25519 private key file to sign the provenance manifest with (see openbi kb keygen)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file (inspect with go tool pprof)")
	memprofile := fs.String("memprofile", "", "write an allocation profile at exit to this file (inspect with go tool pprof)")
	fs.Parse(args)

	// Fail on an unloadable signing key before hours of grid work, not after.
	priv, err := loadSigningKey(*keyPath)
	if err != nil {
		return err
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		path := *memprofile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush pending frees so in-use numbers are current
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}()
	}

	eng, err := core.New(core.WithSeed(*seed), core.WithFolds(*folds), core.WithWorkers(*workers))
	if err != nil {
		return err
	}
	ds, err := synth.MakeClassification(synth.ClassificationSpec{Rows: *rows, Seed: *seed})
	if err != nil {
		return err
	}
	ctx, cancel := runContext(*timeout)
	defer cancel()

	var runOpts []core.RunOption
	if *progress {
		runOpts = append(runOpts, core.WithProgress(func(ev experiment.Event) {
			state := ""
			if ev.Restored {
				state = " (restored)"
			}
			fmt.Fprintf(os.Stderr, "\rphase %d: %4d/%4d  %-14s %-28s", ev.Phase, ev.Completed, ev.Total,
				ev.Algorithm, fmt.Sprintf("%s@%.2f%s", ev.Criterion, ev.Severity, state))
			if ev.Completed == ev.Total {
				fmt.Fprintln(os.Stderr)
			}
		}))
	}

	if *shard != "" {
		plan, err := experiment.ParseShardPlan(*shard)
		if err != nil {
			return err
		}
		path := *out
		if path == "" {
			path = fmt.Sprintf("shard-%d-of-%d.json", plan.Index, plan.Count)
		}
		fmt.Printf("running shard %s of the grid on a %d-row reference dataset...\n", plan, *rows)
		if *checkpoint != "" {
			runOpts = append(runOpts, core.WithCheckpoint(*checkpoint))
		}
		sh, err := eng.RunExperimentShard(ctx, ds, "reference", plan, runOpts...)
		if err != nil {
			return explainRunError(err)
		}
		if err := writeFileAtomic(path, func(w *os.File) error { return sh.Save(w) }); err != nil {
			return err
		}
		fmt.Printf("shard %s: %d of %d grid records written to %s\n", plan, len(sh.Records),
			sh.Meta.Phase1Total+sh.Meta.Phase2Total, path)
		fmt.Printf("combine all %d shards with: openbi kb merge -out kb.json shard-*-of-%d.json\n",
			plan.Count, plan.Count)
		return nil
	}

	if *checkpoint != "" {
		runOpts = append(runOpts, core.WithCheckpoint(*checkpoint))
	}
	if *out == "" {
		*out = "kb.json"
	}
	fmt.Printf("running Phase 1 + Phase 2 on a %d-row reference dataset...\n", *rows)
	rep, err := eng.RunExperiments(ctx, ds, "reference", runOpts...)
	if err != nil {
		return explainRunError(err)
	}
	fmt.Printf("phase 1: %d records; phase 2: %d records\n", rep.Phase1Records, rep.Phase2Records)

	// Sensitivity table — the knowledge the advisor runs on.
	algs, crits, cells := eng.KB().SensitivityTable()
	header := append([]string{"algorithm"}, criteriaNames(crits)...)
	t := report.NewTable("Sensitivity (kappa lost per unit severity)", header...)
	for i, a := range algs {
		row := make([]any, 0, len(header))
		row = append(row, a)
		for _, v := range cells[i] {
			row = append(row, v)
		}
		t.AddRowf(row...)
	}
	t.Render(os.Stdout)

	var doc bytes.Buffer
	if err := writeFileAtomic(*out, func(f *os.File) error {
		return eng.SaveKB(io.MultiWriter(f, &doc))
	}); err != nil {
		return err
	}
	fmt.Printf("knowledge base (%d records) written to %s\n", eng.KB().Len(), *out)

	// Emit the provenance manifest beside the KB: merkle tree over the
	// record encodings plus the inputs that produced them, so `openbi kb
	// verify` and chained serve reloads can prove this exact build.
	base, err := kb.Load(bytes.NewReader(doc.Bytes()))
	if err != nil {
		return err
	}
	m, err := kb.BuildManifest(doc.Bytes(), base)
	if err != nil {
		return err
	}
	m.DatasetHash = experiment.DatasetContentHash(ds)
	m.GridFingerprint = eng.GridFingerprint(ds, "reference")
	if err := signAndWriteManifest(m, *out+".manifest", priv); err != nil {
		return err
	}
	fmt.Printf("provenance manifest written to %s (merkle root %s)\n", *out+".manifest", m.MerkleRoot)
	return nil
}

func criteriaNames(crits []dq.Criterion) []string {
	out := make([]string, len(crits))
	for i, c := range crits {
		out[i] = c.String()
	}
	return out
}

func loadKB(path string) (*kb.KnowledgeBase, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("opening knowledge base: %w (run `openbi experiments` first)", err)
	}
	defer f.Close()
	return kb.Load(f)
}

func cmdAdvise(args []string) error {
	fs := flag.NewFlagSet("advise", flag.ExitOnError)
	in := fs.String("in", "", "input file")
	class := fs.String("class", "", "class column name")
	kbPath := fs.String("kb", "kb.json", "knowledge base path")
	fs.Parse(args)
	if *in == "" || *class == "" {
		return fmt.Errorf("advise: -in and -class are required")
	}
	base, err := loadKB(*kbPath)
	if err != nil {
		return err
	}
	tb, err := core.IngestFile(*in)
	if err != nil {
		return err
	}
	m, err := core.BuildModel(tb, *class)
	if err != nil {
		return err
	}
	advice, err := base.Snapshot().Advise(m.Profile)
	if err != nil {
		return err
	}
	printProfile(tb.Name, m.Profile)
	fmt.Println()
	fmt.Print(advice.Explain())
	return nil
}

func cmdMine(args []string) error {
	fs := flag.NewFlagSet("mine", flag.ExitOnError)
	in := fs.String("in", "", "input file")
	class := fs.String("class", "", "class column name")
	kbPath := fs.String("kb", "kb.json", "knowledge base path")
	share := fs.String("share", "", "write predictions as LOD (.nt) here")
	base := fs.String("base", "http://openbi.example.org/", "base IRI for shared LOD")
	timeout := fs.Duration("timeout", 0, "abort mining after this long (0 = no limit); ^C also cancels")
	fs.Parse(args)
	if *in == "" || *class == "" {
		return fmt.Errorf("mine: -in and -class are required")
	}
	eng, err := core.New(core.WithSeed(1))
	if err != nil {
		return err
	}
	kbFile, err := os.Open(*kbPath)
	if err != nil {
		return fmt.Errorf("opening knowledge base: %w (run `openbi experiments` first)", err)
	}
	err = eng.LoadKB(kbFile)
	kbFile.Close()
	if err != nil {
		return err
	}
	tb, err := core.IngestFile(*in)
	if err != nil {
		return err
	}
	ctx, cancel := runContext(*timeout)
	defer cancel()
	adv, err := eng.Advisor()
	if err != nil {
		return err
	}
	res, err := adv.MineWithAdvice(ctx, tb, *class, *base)
	if err != nil {
		return explainRunError(err)
	}
	fmt.Printf("mined with %s: accuracy %.3f, kappa %.3f, macro-F1 %.3f on %d held-out instances\n",
		res.Algorithm, res.Metrics.Accuracy, res.Metrics.Kappa, res.Metrics.MacroF1, res.Metrics.TestInstances)
	if *share != "" {
		if err := writeFileAtomic(*share, func(f *os.File) error {
			return rdf.WriteNTriples(f, res.Shared)
		}); err != nil {
			return err
		}
		fmt.Printf("shared %d prediction triples to %s\n", res.Shared.Len(), *share)
	}
	return nil
}

func cmdOLAP(args []string) error {
	fs := flag.NewFlagSet("olap", flag.ExitOnError)
	in := fs.String("in", "", "input file")
	dims := fs.String("dims", "", "comma-separated nominal dimensions")
	measures := fs.String("measure", "", "comma-separated agg:column (agg in sum,avg,count,min,max)")
	fs.Parse(args)
	if *in == "" || *dims == "" || *measures == "" {
		return fmt.Errorf("olap: -in, -dims and -measure are required")
	}
	tb, err := core.IngestFile(*in)
	if err != nil {
		return err
	}
	dimList := strings.Split(*dims, ",")
	var ms []olap.Measure
	for _, spec := range strings.Split(*measures, ",") {
		parts := strings.SplitN(spec, ":", 2)
		if len(parts) != 2 {
			return fmt.Errorf("olap: bad measure %q, want agg:column", spec)
		}
		var agg olap.Aggregation
		switch parts[0] {
		case "sum":
			agg = olap.Sum
		case "avg":
			agg = olap.Avg
		case "count":
			agg = olap.Count
		case "min":
			agg = olap.Min
		case "max":
			agg = olap.Max
		default:
			return fmt.Errorf("olap: unknown aggregation %q", parts[0])
		}
		ms = append(ms, olap.Measure{Column: parts[1], Agg: agg})
	}
	cube, err := olap.NewCube(tb, dimList, ms)
	if err != nil {
		return err
	}
	t, err := cube.RollUpTable(fmt.Sprintf("Roll-up of %q", tb.Name), dimList...)
	if err != nil {
		return err
	}
	return t.Render(os.Stdout)
}

func cmdRepair(args []string) error {
	fs := flag.NewFlagSet("repair", flag.ExitOnError)
	in := fs.String("in", "", "input file")
	class := fs.String("class", "", "class column name (optional; protected from repairs)")
	out := fs.String("out", "", "write the repaired table as CSV here (omit for dry run)")
	threshold := fs.Float64("threshold", 0.05, "minimum severity that triggers a repair")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("repair: -in is required")
	}
	tb, err := core.IngestFile(*in)
	if err != nil {
		return err
	}
	profile, err := core.ProfileTable(tb, *class, nil)
	if err != nil {
		return err
	}
	plan := clean.Suggest(profile, *class, *threshold)
	fmt.Print(clean.Describe(plan))
	if *out == "" || len(plan) == 0 {
		return nil
	}
	repaired, reports, err := clean.PipelineFrom(plan).Run(tb)
	if err != nil {
		return err
	}
	for _, r := range reports {
		fmt.Printf("applied %-18s changed %d cells/rows\n", r.Step, r.Changed)
	}
	if err := writeFileAtomic(*out, func(f *os.File) error {
		return table.WriteCSV(f, repaired)
	}); err != nil {
		return err
	}
	fmt.Printf("repaired table written to %s\n", *out)
	return nil
}

func cmdValidate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	kbPath := fs.String("kb", "kb.json", "knowledge base path")
	rows := fs.Int("rows", 400, "held-out dataset rows")
	trials := fs.Int("trials", 10, "random corruption scenarios")
	seed := fs.Int64("seed", 1234, "random seed")
	timeout := fs.Duration("timeout", 0, "abort validation after this long (0 = no limit); ^C also cancels")
	fs.Parse(args)

	base, err := loadKB(*kbPath)
	if err != nil {
		return err
	}
	ds, err := synth.MakeClassification(synth.ClassificationSpec{Rows: *rows, Seed: *seed})
	if err != nil {
		return err
	}
	ctx, cancel := runContext(*timeout)
	defer cancel()
	cfg := experiment.Config{Seed: *seed, Folds: 5}
	res, err := experiment.Validate(ctx, cfg, ds, base.Snapshot(), *trials)
	if err != nil {
		return explainRunError(err)
	}
	t := report.NewTable("Advisor validation", "scenario", "advised", "empirical best", "regret")
	for _, d := range res.Detail {
		t.AddRowf(d.Scenario, d.Advised, d.Empirical, d.Regret)
	}
	t.Render(os.Stdout)
	fmt.Printf("top-1 hit rate %.2f, top-2 %.2f, mean regret %.3f kappa (static %q policy regret %.3f)\n",
		res.Top1Rate(), res.Top2Rate(), res.MeanRegret, res.StaticPolicy, res.StaticRegret)
	return nil
}

// writeCSV writes a generated dataset's table as CSV.
func writeCSV(f *os.File, ds *mining.Dataset) error {
	return table.WriteCSV(f, ds.Table())
}
