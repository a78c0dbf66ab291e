package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"openbi/internal/core"
	"openbi/internal/dq"
	"openbi/internal/rdf"
)

// goldenIngestCSVSHA256 pins the projected table `openbi generate -kind
// municipal -n 200 -seed 42 -dirty 0.2` → `openbi ingest` must produce,
// byte for byte. It guards the whole streaming chain — decoder, class
// selection, projection, CSV writer — the way goldenKBSHA256 guards the
// experiment stack: a refactor that moves one cell breaks here instead of
// silently changing downstream mining.
const goldenIngestCSVSHA256 = "318960a607880e6a656b8fd643dd2985878f82e62e0986196a8900b398775e23"

// TestCLIIngestGolden drives the LOD path end to end through the CLI:
// generate a dirty municipal LOD export, stream-ingest it, pin the
// projected-table hash, and cross-check the streamed output against the
// batch (graph-resident) projection and profile.
func TestCLIIngestGolden(t *testing.T) {
	dir := t.TempDir()
	nt := filepath.Join(dir, "lod.nt")
	csv := filepath.Join(dir, "lod.csv")

	out := captureStdout(t, func() error {
		return cmdGenerate([]string{"-kind", "municipal", "-n", "200", "-seed", "42", "-dirty", "0.2", "-out", nt})
	})
	if !strings.Contains(out, "triples") {
		t.Fatalf("generate output: %q", out)
	}

	out = captureStdout(t, func() error {
		return cmdIngest([]string{"-in", nt, "-csv", csv})
	})
	for _, want := range []string{"LOD profile", "dangling link ratio",
		"projected class <http://opendata.example.org/def/Municipality>"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ingest output missing %q:\n%s", want, out)
		}
	}
	raw, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); got != goldenIngestCSVSHA256 {
		t.Fatalf("projected CSV drifted from the golden hash:\n got %s\nwant %s", got, goldenIngestCSVSHA256)
	}

	// The batch path must agree byte for byte: load the graph, project the
	// largest class, compare against the streamed ingest output.
	f, err := os.Open(nt)
	if err != nil {
		t.Fatal(err)
	}
	g, err := rdf.ReadNTriples(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	batchT, err := core.ProjectLargestClass(g)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := os.Open(nt)
	if err != nil {
		t.Fatal(err)
	}
	ing, err := core.IngestLOD(f2, "nt", rdf.ProjectOptions{LargestClass: true})
	f2.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ing.Profile != dq.MeasureLOD(g) {
		t.Fatalf("streamed profile %+v != batch %+v", ing.Profile, dq.MeasureLOD(g))
	}
	if batchT.NumRows() != ing.Table.NumRows() || batchT.NumCols() != ing.Table.NumCols() {
		t.Fatalf("stream table %dx%d != batch %dx%d",
			ing.Table.NumRows(), ing.Table.NumCols(), batchT.NumRows(), batchT.NumCols())
	}

	// Streaming from stdin ('-in -') must match the file path exactly.
	stdinCSV := filepath.Join(dir, "stdin.csv")
	src, err := os.Open(nt)
	if err != nil {
		t.Fatal(err)
	}
	oldStdin := os.Stdin
	os.Stdin = src
	_ = captureStdout(t, func() error {
		return cmdIngest([]string{"-in", "-", "-format", "nt", "-csv", stdinCSV})
	})
	os.Stdin = oldStdin
	src.Close()
	raw2, err := os.ReadFile(stdinCSV)
	if err != nil {
		t.Fatal(err)
	}
	sum2 := sha256.Sum256(raw2)
	if got := hex.EncodeToString(sum2[:]); got != goldenIngestCSVSHA256 {
		t.Fatalf("stdin ingest diverged from file ingest: %s", got)
	}
}

// TestCLIIngestEscapesSameInBothFormats: one document that is valid
// N-Triples, and so valid Turtle, projects to the same CSV whichever
// extension it is saved under; the \u escape in its literal decodes to é
// in both.
func TestCLIIngestEscapesSameInBothFormats(t *testing.T) {
	dir := t.TempDir()
	doc := "<http://ex.org/a> <" + rdf.RDFType + "> <http://ex.org/C> .\n" +
		`<http://ex.org/a> <http://ex.org/p> "café" .` + "\n"
	var csvs []string
	for _, name := range []string{"esc.nt", "esc.ttl"} {
		in, out := filepath.Join(dir, name), filepath.Join(dir, name+".csv")
		if err := os.WriteFile(in, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		captureStdout(t, func() error { return cmdIngest([]string{"-in", in, "-csv", out}) })
		raw, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		csvs = append(csvs, string(raw))
	}
	if csvs[0] != csvs[1] {
		t.Fatalf("projections differ:\n--- esc.nt\n%s--- esc.ttl\n%s", csvs[0], csvs[1])
	}
	if !strings.Contains(csvs[0], "café") {
		t.Fatalf("escape not decoded:\n%s", csvs[0])
	}
}
