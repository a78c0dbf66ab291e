package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"openbi/internal/rdf"
	"openbi/internal/synth"
)

// rdfPathGolden pins what `openbi profile`, `advise` and `mine -share`
// print for the golden municipal source (`openbi generate -kind municipal
// -n 200 -seed 42 -dirty 0.2`), and what `mine` shares. Stdout hashes are
// taken with the temp dir replaced by "$DIR"; the shared hash is over the
// .nt with its def/toolchain triple dropped, since that triple carries
// runtime.Version().
var rdfPathGolden = map[string]string{
	"profile": "7cd156924206ba5eac5d25e6b622e927753a65eb0caa7c8f7a6995aabdb20edd",
	"advise":  "7911a1ac762d45886515c51084c747b0f7c03033329a20a896416c77be55fb9b",
	"mine":    "e01da4bf32045432c71da73ba82d081003b1322579ed262dff2bb3cf3eed422a",
	"shared":  "7c798f730e45251efd7c1014596e6662f98fa7029506a4abbfca0cff526dfb60",
}

// TestCLIRDFPathGolden drives the paper's user path — profile a Linked
// Open Data source, ask the golden KB for advice, mine and share — over
// the same graph as N-Triples, as Turtle and as N-Triples with every
// triple repeated three times, and over copies named with upper-case
// extensions. All hold one graph, so they must print the same profile,
// advice and mining result, and `openbi ingest -csv` must write the
// golden CSV; the pinned hashes keep any change to ingestion from moving
// a byte of it.
func TestCLIRDFPathGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the golden knowledge base")
	}
	dir := t.TempDir()
	kbPath := filepath.Join(dir, "kb.json")
	captureStdout(t, func() error {
		return cmdExperiments([]string{"-rows", "120", "-folds", "3", "-seed", "42", "-out", kbPath})
	})
	if got := fileSHA256(t, kbPath); got != goldenKBSHA256 {
		t.Fatalf("kb.json drifted from the golden hash:\n got %s\nwant %s", got, goldenKBSHA256)
	}
	writeGoldenLOD(t, dir)

	mask := func(s string) string { return strings.ReplaceAll(s, dir, "$DIR") }
	shared := filepath.Join(dir, "shared.nt")
	csv := filepath.Join(dir, "projected.csv")
	for _, name := range []string{"lod.nt", "lod.ttl", "lod-dup3.nt", "LOD.NT", "LOD.TTL"} {
		t.Run(name, func(t *testing.T) {
			in := filepath.Join(dir, name)
			captureStdout(t, func() error { return cmdIngest([]string{"-in", in, "-csv", csv}) })
			if got := fileSHA256(t, csv); got != goldenIngestCSVSHA256 {
				t.Errorf("ingest -csv drifted from the golden hash:\n got %s\nwant %s", got, goldenIngestCSVSHA256)
			}
			got := map[string]string{
				"profile": mask(captureStdout(t, func() error {
					return cmdProfile([]string{"-in", in, "-class", "fundingLevel"})
				})),
				"advise": mask(captureStdout(t, func() error {
					return cmdAdvise([]string{"-in", in, "-class", "fundingLevel", "-kb", kbPath})
				})),
				"mine": mask(captureStdout(t, func() error {
					return cmdMine([]string{"-in", in, "-class", "fundingLevel", "-kb", kbPath, "-share", shared})
				})),
			}
			raw, err := os.ReadFile(shared)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.SplitAfter(string(raw), "\n")
			kept := lines[:0]
			for _, line := range lines {
				if !strings.Contains(line, "/def/toolchain> ") {
					kept = append(kept, line)
				}
			}
			if len(kept) != len(lines)-1 {
				t.Fatalf("shared LOD carries %d def/toolchain triples, want 1", len(lines)-len(kept))
			}
			got["shared"] = strings.Join(kept, "")
			for _, what := range []string{"profile", "advise", "mine", "shared"} {
				if sum := sha256Hex([]byte(got[what])); sum != rdfPathGolden[what] {
					t.Errorf("%s drifted from the golden hash:\n got %s\nwant %s\n%s", what, sum, rdfPathGolden[what], got[what])
				}
			}
		})
	}
}

// writeGoldenLOD writes the golden municipal source into dir as lod.nt
// (through `openbi generate`), lod.ttl (the same graph through
// rdf.WriteTurtle, with prefixed names), lod-dup3.nt (lod.nt three times
// over: triple the raw triples, the same graph), and LOD.NT and LOD.TTL
// (copies of lod.nt and lod.ttl).
func writeGoldenLOD(t *testing.T, dir string) {
	t.Helper()
	nt := filepath.Join(dir, "lod.nt")
	captureStdout(t, func() error {
		return cmdGenerate([]string{"-kind", "municipal", "-n", "200", "-seed", "42", "-dirty", "0.2", "-out", nt})
	})
	data, err := os.ReadFile(nt)
	if err != nil {
		t.Fatal(err)
	}
	g, err := rdf.ReadNTriples(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var ttl bytes.Buffer
	if err := rdf.WriteTurtle(&ttl, g, map[string]string{
		"ex":   synth.NSBase,
		"def":  synth.NSDef,
		"rdf":  "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
		"rdfs": "http://www.w3.org/2000/01/rdf-schema#",
		"owl":  "http://www.w3.org/2002/07/owl#",
		"xsd":  "http://www.w3.org/2001/XMLSchema#",
	}); err != nil {
		t.Fatal(err)
	}
	for name, doc := range map[string][]byte{
		"lod.ttl": ttl.Bytes(), "lod-dup3.nt": bytes.Repeat(data, 3),
		"LOD.NT": data, "LOD.TTL": ttl.Bytes(),
	} {
		if err := os.WriteFile(filepath.Join(dir, name), doc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
