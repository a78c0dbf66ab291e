// Package openbi is the public facade of the OpenBI reproduction — an
// implementation of "Open Business Intelligence: on the importance of data
// quality awareness in user-friendly data mining" (Mazón et al., LWDM @
// EDBT 2012).
//
// The paper's pipeline, end to end:
//
//	eng, _ := openbi.New(openbi.WithSeed(42))
//	ds, _ := synth-or-ingested dataset
//	eng.RunExperiments(ctx, ds, "reference")          // Figure 2, left: build DQ4DM KB
//	adv, _ := eng.Advisor()                           // online session, pinned KB snapshot
//	advice, model, _ := adv.Advise(ctx, t, "class")   // Figure 2, right: "the best option is ALGORITHM X"
//	result, _ := adv.MineWithAdvice(ctx, t, "class", base) // mine + share back as LOD
//
// The Engine's configuration is immutable after New (functional options
// replace the old mutable fields), the knowledge base is served through
// atomically-swapped immutable snapshots, and every pipeline entry point
// takes a context.Context — so one populated Engine safely serves any
// number of concurrent Advise/MineWithAdvice callers while experiments
// re-run. Failures across the pipeline match the exported Err* sentinels
// via errors.Is.
//
// The heavy lifting lives in internal packages (table, rdf, cwm, dq,
// inject, clean, mining, eval, kb, experiment, olap, synth, report); this
// package re-exports the surface a downstream user needs.
package openbi

import (
	"crypto/ed25519"
	"io"
	"time"

	"openbi/internal/core"
	"openbi/internal/dq"
	"openbi/internal/eval"
	"openbi/internal/experiment"
	"openbi/internal/inject"
	"openbi/internal/kb"
	"openbi/internal/mining"
	"openbi/internal/provenance"
	"openbi/internal/rdf"
	"openbi/internal/server"
	"openbi/internal/synth"
	"openbi/internal/table"
)

// Engine is the OpenBI serving object; see core.Engine.
type Engine = core.Engine

// Option configures an Engine at construction time; see With*.
type Option = core.Option

// New builds an immutable, concurrency-safe Engine with an empty DQ4DM
// knowledge base. It fails eagerly on invalid options (ErrBadConfig,
// ErrUnknownAlgorithm).
func New(opts ...Option) (*Engine, error) { return core.New(opts...) }

// WithSeed sets the seed driving all stochastic components.
func WithSeed(seed int64) Option { return core.WithSeed(seed) }

// WithFolds sets the cross-validation fold count (default 5).
func WithFolds(folds int) Option { return core.WithFolds(folds) }

// WithWorkers bounds experiment parallelism (0 = GOMAXPROCS).
func WithWorkers(workers int) Option { return core.WithWorkers(workers) }

// WithCombos sets the Phase-2 mixed-criteria combinations.
func WithCombos(combos [][]Criterion) Option { return core.WithCombos(combos) }

// WithAlgorithms restricts the mining suite to the named algorithms.
func WithAlgorithms(names ...string) Option { return core.WithAlgorithms(names...) }

// WithCorpus registers a named experiment corpus; RunCorpora mines the
// grid over every registered corpus so the knowledge base learns from
// several data shapes ("scenario diversity") instead of one synthetic
// reference.
func WithCorpus(name string, ds *Dataset) Option { return core.WithCorpus(name, ds) }

// WithProgress streams per-record Events from a RunExperiments call.
func WithProgress(sink func(Event)) RunOption { return core.WithProgress(sink) }

// WithCheckpoint makes a RunExperiments call resumable: completed grid
// cells are journaled under dir and a rerun with the same configuration
// resumes mid-grid instead of restarting. The final knowledge base is
// byte-identical either way.
func WithCheckpoint(dir string) RunOption { return core.WithCheckpoint(dir) }

// Re-exported model types.
type (
	// Table is the columnar open-data table.
	Table = table.Table
	// Access is the read-only contract shared by *Table and the zero-copy
	// *TableView; pipeline entry points accept it so callers can pass
	// either without copying.
	Access = table.Access
	// TableView is an immutable zero-copy row/column window onto a Table.
	TableView = table.View
	// Column is one typed table column.
	Column = table.Column
	// Dataset is a supervised view over a Table.
	Dataset = mining.Dataset
	// Graph is an in-memory RDF graph (Linked Open Data).
	Graph = rdf.Graph
	// Triple is one RDF statement.
	Triple = rdf.Triple
	// TripleFunc consumes triples from a streaming RDF decoder.
	TripleFunc = rdf.TripleFunc
	// ProjectOptions controls the entity→table projection (batch and
	// streaming).
	ProjectOptions = rdf.ProjectOptions
	// Projector is the incremental entity→table projection: feed triples
	// with Add, finish with Table.
	Projector = rdf.Projector
	// LODProfile is the graph-level data-quality profile.
	LODProfile = dq.LODProfile
	// LODSketch computes an LODProfile from a triple stream in one pass;
	// partition sketches Merge deterministically.
	LODSketch = dq.LODSketch
	// LODIngest is the result of one streaming RDF ingestion (projected
	// table + graph-level profile from a single pass).
	LODIngest = core.LODIngest
	// Profile is a measured data-quality fingerprint.
	Profile = dq.Profile
	// Criterion identifies one data-quality criterion.
	Criterion = dq.Criterion
	// Advice is the advisor's ranked recommendation.
	Advice = kb.Advice
	// Advisor is a read-only advice session pinned to one KB snapshot.
	Advisor = core.Advisor
	// KnowledgeBase is the write-side DQ4DM experiment store.
	KnowledgeBase = kb.KnowledgeBase
	// Snapshot is the immutable, lock-free read side of the knowledge
	// base, as served by Engine.KB and Advisor sessions.
	Snapshot = kb.Snapshot
	// Event is one experiment-progress notification (see WithProgress).
	Event = experiment.Event
	// RunOption configures one RunExperiments call.
	RunOption = core.RunOption
	// ShardPlan is a stable partition of the experiment grid into n shard
	// jobs (see Engine.RunExperimentShard and MergeKB).
	ShardPlan = experiment.ShardPlan
	// Shard is one shard job's output: positioned experiment records plus
	// the run identity MergeKB validates.
	Shard = kb.Shard
	// Corpus is one named experiment dataset (see WithCorpus).
	Corpus = core.Corpus
	// Metrics is a classification quality record.
	Metrics = eval.Metrics
	// InjectSpec describes one controlled data-quality defect.
	InjectSpec = inject.Spec
	// Model is an annotated common representation (CWM catalog + profile).
	Model = core.Model
	// MiningResult is the outcome of MineWithAdvice: chosen algorithm,
	// holdout metrics, the advice and model that picked it, and the
	// predictions shared back as LOD.
	MiningResult = core.MiningResult
	// ClassificationSpec parameterizes the synthetic dataset generator.
	ClassificationSpec = synth.ClassificationSpec
	// LODSpec parameterizes the synthetic LOD generators.
	LODSpec = synth.LODSpec
)

// Data-quality criteria (dq.AllCriteria order).
const (
	Completeness   = dq.Completeness
	Duplicates     = dq.Duplicates
	Correlation    = dq.Correlation
	Imbalance      = dq.Imbalance
	LabelNoise     = dq.LabelNoise
	AttributeNoise = dq.AttributeNoise
	Dimensionality = dq.Dimensionality
)

// AllCriteria lists every data-quality criterion in canonical order.
func AllCriteria() []Criterion { return dq.AllCriteria() }

// MeasureQuality profiles a table against every criterion; classColumn may
// be "" when there is no classification target.
func MeasureQuality(t *Table, classColumn string) Profile {
	idx := -1
	if classColumn != "" {
		idx = t.ColumnIndex(classColumn)
	}
	return dq.Measure(t, dq.MeasureOptions{ClassColumn: idx})
}

// Corrupt injects controlled data-quality defects into a copy of t
// (§3.1's "introduce some data quality problems in a controlled manner").
// Only the columns a defect touches are deep-copied; the rest share
// storage with t, so t must not be mutated afterwards. A non-empty
// classColumn absent from t fails with ErrColumnNotFound.
func Corrupt(t Access, classColumn string, specs []InjectSpec, seed int64) (*Table, error) {
	return core.CorruptForDemo(t, classColumn, specs, seed)
}

// MakeClassification generates a clean synthetic classification dataset.
func MakeClassification(spec ClassificationSpec) (*Dataset, error) {
	return synth.MakeClassification(spec)
}

// MunicipalBudgetLOD generates an open-government municipal-finance LOD
// graph (see synth.MunicipalBudgetLOD).
func MunicipalBudgetLOD(spec LODSpec) (*Graph, error) { return synth.MunicipalBudgetLOD(spec) }

// AirQualityLOD generates an air-quality monitoring LOD graph.
func AirQualityLOD(spec LODSpec) (*Graph, error) { return synth.AirQualityLOD(spec) }

// EducationLOD generates a school-statistics LOD graph.
func EducationLOD(spec LODSpec) (*Graph, error) { return synth.EducationLOD(spec) }

// ProjectLargestClass flattens an RDF graph onto its most populous entity
// class — the default LOD → common-representation step.
func ProjectLargestClass(g *Graph) (*Table, error) { return core.ProjectLargestClass(g) }

// ---- Streaming LOD ingestion (constant-memory; see internal/rdf, dq, core) ----

// StreamRDF decodes RDF from r ("nt" or "ttl") in one pass, invoking fn
// per triple. Memory is bounded by the longest statement, not the graph,
// so documents larger than memory stream fine. Parse failures match
// ErrBadSyntax; unknown formats ErrUnsupportedFormat.
func StreamRDF(r io.Reader, format string, fn TripleFunc) error { return rdf.Stream(r, format, fn) }

// StreamProject decodes RDF from r straight into a projected table,
// byte-identical to Project over the loaded graph, without materializing
// the graph; memory scales with the projected content (distinct
// subject/predicate/object combinations), not the raw triple count.
func StreamProject(r io.Reader, format string, opts ProjectOptions) (*Table, error) {
	return rdf.StreamProject(r, format, opts)
}

// NewProjector returns an incremental entity→table projector (validates
// opts like Project).
func NewProjector(opts ProjectOptions) (*Projector, error) { return rdf.NewProjector(opts) }

// MeasureLOD profiles a graph's quality criteria before projection.
func MeasureLOD(g *Graph) LODProfile { return dq.MeasureLOD(g) }

// NewLODSketch returns an empty streaming LOD profile sketch.
func NewLODSketch() *LODSketch { return dq.NewLODSketch() }

// NewLODSketchAt returns a sketch for a stream partition beginning at the
// given raw-triple offset; merged partition sketches profile exactly like
// one monolithic pass, in any merge order.
func NewLODSketchAt(base uint64) *LODSketch { return dq.NewLODSketchAt(base) }

// IngestLOD streams an RDF document once, feeding the quality sketch and
// the table projector from the same constant-memory decoder pass; see
// core.IngestLOD for the precise memory contract.
func IngestLOD(r io.Reader, format string, opts ProjectOptions) (*LODIngest, error) {
	return core.IngestLOD(r, format, opts)
}

// WithLODCorpus registers an experiment corpus ingested from an RDF
// stream at New; RunCorpora then learns degradation curves straight from
// Linked Open Data next to tabular corpora.
func WithLODCorpus(name string, r io.Reader, format string, classColumn string) Option {
	return core.WithLODCorpus(name, r, format, classColumn)
}

// SuiteNames lists the registry names of the mining suite the advisor
// arbitrates between.
func SuiteNames() []string { return mining.SuiteNames() }

// ---- Scaling out (sharded KB construction; see internal/experiment) ----

// ParseShardPlan parses the CLI's "index/count" shard syntax (0-based),
// e.g. "0/2" and "1/2" are the two shards of a 2-way plan.
func ParseShardPlan(s string) (ShardPlan, error) { return experiment.ParseShardPlan(s) }

// MergeKB deterministically combines shard outputs (in any order) into one
// knowledge base with canonical record ordering — byte-identical, once
// saved, to the monolithic run with the same seed. It fails when shards
// come from different runs, overlap, or leave grid cells uncovered.
func MergeKB(shards ...*Shard) (*KnowledgeBase, error) { return kb.Merge(shards...) }

// LoadShard reads one shard file written by Engine.RunExperimentShard /
// `openbi experiments -shard`.
func LoadShard(r io.Reader) (*Shard, error) { return kb.LoadShard(r) }

// ---- Provenance (see internal/provenance, internal/kb) ----

// Manifest is the tamper-evident provenance record written beside a
// knowledge base (kb.json.manifest): a Merkle tree over the KB's record
// encodings plus the dataset hash, grid fingerprint, per-shard digests and
// toolchain that produced it, optionally ed25519-signed.
type Manifest = provenance.Manifest

// ManifestShardDigest pins one shard of a merged run inside a Manifest.
type ManifestShardDigest = provenance.ShardDigest

// RecordMismatchError names the first KB record whose encoding does not
// hash to the manifest's leaf, with its Merkle audit path; recover it with
// errors.As from BuildManifest/VerifyManifest failures.
type RecordMismatchError = provenance.RecordMismatchError

// BuildManifest derives the provenance manifest for a saved knowledge
// base: doc is the exact saved bytes, k the loaded KB.
func BuildManifest(doc []byte, k *KnowledgeBase) (*Manifest, error) { return kb.BuildManifest(doc, k) }

// BuildMergedManifest derives the manifest for a merged KB and
// cross-checks the record-level Merkle root against one recomputed from
// the per-shard trees — the merge refuses a manifest the shards disagree
// with.
func BuildMergedManifest(doc []byte, merged *KnowledgeBase, shards ...*Shard) (*Manifest, error) {
	return kb.BuildMergedManifest(doc, merged, shards...)
}

// VerifyManifest checks a saved KB against its manifest; failures match
// ErrManifestMismatch, and record-level corruption carries the first bad
// record's index via ManifestError / RecordMismatchError.
func VerifyManifest(m *Manifest, doc []byte, k *KnowledgeBase) error {
	return kb.VerifyManifest(m, doc, k)
}

// LoadManifest reads a manifest file written by `openbi experiments` or
// `openbi kb merge`.
func LoadManifest(r io.Reader) (*Manifest, error) { return provenance.Load(r) }

// ---- Serving (see internal/server) ----

// Server is the HTTP/JSON advice service around an Engine: POST /v1/advise
// (micro-batched + LRU-cached), POST /v1/profile, GET /v1/kb,
// POST /v1/kb/reload (atomic hot swap), GET /v1/metrics and GET /healthz.
// It is an http.Handler; run it with ListenAndServe(ctx, addr) for
// graceful drain on context cancellation, or mount it in a larger mux.
type Server = server.Server

// ServerOption configures NewServer; see WithKBPath, WithCacheSize,
// WithBatchWindow, WithBatchMaxSize, WithRequestTimeout, WithDrainTimeout
// and WithMaxBodyBytes.
type ServerOption = server.Option

// ServerMetrics is the counter snapshot returned by Server.Metrics and
// GET /v1/metrics.
type ServerMetrics = server.MetricsSnapshot

// NewServer builds the HTTP advice service around an engine. The engine's
// current KB snapshot becomes generation 0; POST /v1/kb/reload swaps in
// later generations without dropping in-flight requests.
func NewServer(e *Engine, opts ...ServerOption) (*Server, error) { return server.New(e, opts...) }

// WithKBPath sets the default file POST /v1/kb/reload reads.
func WithKBPath(path string) ServerOption { return server.WithKBPath(path) }

// WithCacheSize bounds the advice LRU cache (0 disables it).
func WithCacheSize(n int) ServerOption { return server.WithCacheSize(n) }

// WithBatchWindow sets the micro-batching window for concurrent advise
// calls (0 adds no latency and batches only what is already queued).
func WithBatchWindow(d time.Duration) ServerOption { return server.WithBatchWindow(d) }

// WithBatchMaxSize caps one advise scoring batch.
func WithBatchMaxSize(n int) ServerOption { return server.WithBatchMaxSize(n) }

// WithRequestTimeout bounds how long an advise call may wait for its
// scoring batch, and how long a request may wait in the admission queue
// before it is shed with 429 overloaded.
func WithRequestTimeout(d time.Duration) ServerOption { return server.WithRequestTimeout(d) }

// WithDrainTimeout bounds the graceful-shutdown drain.
func WithDrainTimeout(d time.Duration) ServerOption { return server.WithDrainTimeout(d) }

// WithMaxBodyBytes caps request body sizes (CSV uploads).
func WithMaxBodyBytes(n int64) ServerOption { return server.WithMaxBodyBytes(n) }

// WithMaxInflight bounds concurrently executing heavy requests (advise,
// profile, lod/profile); excess load beyond the bounded wait queue is
// shed with 429 overloaded + Retry-After. 0 (default) disables admission
// control.
func WithMaxInflight(n int) ServerOption { return server.WithMaxInflight(n) }

// WithQueueDepth bounds how many requests may wait for an inflight slot
// before shedding (default: equal to WithMaxInflight).
func WithQueueDepth(n int) ServerOption { return server.WithQueueDepth(n) }

// WithManifestRequired makes the server refuse any KB reload that does not
// carry a verified provenance manifest (422 manifest_mismatch).
func WithManifestRequired() ServerOption { return server.WithManifestRequired() }

// WithManifestKey pins the ed25519 public key every reload manifest must
// be signed by; unsigned or foreign-key manifests are refused.
func WithManifestKey(pub ed25519.PublicKey) ServerOption { return server.WithManifestKey(pub) }

// WithServerManifest seeds generation 0 with the already-verified manifest
// of the KB the engine was loaded from, so the reload chain starts at
// startup rather than at the first hot swap.
func WithServerManifest(m *Manifest) ServerOption { return server.WithManifest(m) }
