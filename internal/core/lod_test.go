package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"openbi/internal/dq"
	"openbi/internal/oberr"
	"openbi/internal/rdf"
	"openbi/internal/synth"
	"openbi/internal/table"
)

// lodNT serializes a synthetic municipal LOD graph to N-Triples bytes.
func lodNT(t *testing.T, spec synth.LODSpec) (*rdf.Graph, []byte) {
	t.Helper()
	g, err := synth.MunicipalBudgetLOD(spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rdf.WriteNTriples(&buf, g); err != nil {
		t.Fatal(err)
	}
	return g, buf.Bytes()
}

// TestIngestLODMatchesBatchPath: the single-pass streaming ingestion must
// reproduce exactly what the batch path (load graph, MeasureLOD,
// ProjectLargestClass) computes — profile equal, table byte-identical.
func TestIngestLODMatchesBatchPath(t *testing.T) {
	g, nt := lodNT(t, synth.LODSpec{Entities: 150, Seed: 5, Dirtiness: 0.25})

	ing, err := IngestLOD(bytes.NewReader(nt), "nt", rdf.ProjectOptions{LargestClass: true})
	if err != nil {
		t.Fatal(err)
	}
	if ing.Profile != dq.MeasureLOD(g) {
		t.Fatalf("streamed profile %+v != batch %+v", ing.Profile, dq.MeasureLOD(g))
	}
	if ing.Triples != g.Len() {
		t.Fatalf("raw triple count %d != %d (generator emits no duplicates)", ing.Triples, g.Len())
	}
	batchT, err := ProjectLargestClass(g)
	if err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if err := table.WriteCSV(&want, batchT); err != nil {
		t.Fatal(err)
	}
	if err := table.WriteCSV(&got, ing.Table); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("streamed projection differs from batch:\n--- stream\n%s\n--- batch\n%s",
			got.String(), want.String())
	}
}

// TestIngestLODBadInput: syntax errors surface with the oberr taxonomy.
func TestIngestLODBadInput(t *testing.T) {
	_, err := IngestLOD(bytes.NewReader([]byte("this is not rdf\n")), "nt", rdf.ProjectOptions{})
	if !errors.Is(err, oberr.ErrBadSyntax) {
		t.Fatalf("want ErrBadSyntax, got %v", err)
	}
	_, err = IngestLOD(bytes.NewReader(nil), "parquet", rdf.ProjectOptions{})
	if !errors.Is(err, oberr.ErrUnsupportedFormat) {
		t.Fatalf("want ErrUnsupportedFormat, got %v", err)
	}
}

// TestWithLODCorpus: an RDF stream registered at New becomes a runnable
// corpus; a bad class column or bad syntax fails New eagerly.
func TestWithLODCorpus(t *testing.T) {
	_, nt := lodNT(t, synth.LODSpec{Entities: 60, Seed: 9})
	eng, err := New(
		WithSeed(1), WithFolds(2), WithAlgorithms("zero-r", "one-r"),
		WithCombos([][]dq.Criterion{{dq.Completeness, dq.Imbalance}}),
		WithLODCorpus("municipal", bytes.NewReader(nt), "nt", "fundingLevel"),
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Corpora(); len(got) != 1 || got[0] != "municipal" {
		t.Fatalf("Corpora() = %v", got)
	}
	rep, err := eng.RunCorpora(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Phase1Records == 0 || rep.Phase2Records == 0 {
		t.Fatalf("LOD corpus produced an empty grid: %+v", rep)
	}
	if eng.KB().Len() != rep.Phase1Records+rep.Phase2Records {
		t.Fatalf("KB records %d != %d+%d", eng.KB().Len(), rep.Phase1Records, rep.Phase2Records)
	}

	_, err = New(WithLODCorpus("municipal", bytes.NewReader(nt), "nt", "noSuchColumn"))
	if !errors.Is(err, oberr.ErrColumnNotFound) {
		t.Fatalf("bad class column: want ErrColumnNotFound, got %v", err)
	}
	_, err = New(WithLODCorpus("junk", bytes.NewReader([]byte("junk\n")), "nt", "fundingLevel"))
	if !errors.Is(err, oberr.ErrBadSyntax) {
		t.Fatalf("bad stream: want ErrBadSyntax, got %v", err)
	}
}

// TestIngestFileMatchesGraphProjection: IngestFile streams .nt and .ttl
// files, and must still return what projecting the loaded graph returns —
// equal under table.Equal, with the same name and every nominal column's
// level dictionary and codes identical. Upper-case extensions take the
// same path.
func TestIngestFileMatchesGraphProjection(t *testing.T) {
	g, nt := lodNT(t, synth.LODSpec{Entities: 150, Seed: 5, Dirtiness: 0.25})
	var ttl bytes.Buffer
	if err := rdf.WriteTurtle(&ttl, g, map[string]string{"ex": synth.NSBase, "def": synth.NSDef}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, c := range []struct {
		name string
		doc  []byte
		read func(io.Reader) (*rdf.Graph, error)
	}{
		{"src.nt", nt, rdf.ReadNTriples},
		{"src.ttl", ttl.Bytes(), rdf.ReadTurtle},
		{"src-dup3.nt", bytes.Repeat(nt, 3), rdf.ReadNTriples},
		{"SRC.NT", nt, rdf.ReadNTriples},
		{"src.Ttl", ttl.Bytes(), rdf.ReadTurtle},
	} {
		path := filepath.Join(dir, c.name)
		if err := os.WriteFile(path, c.doc, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := IngestFile(path)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		loaded, err := c.read(bytes.NewReader(c.doc))
		if err != nil {
			t.Fatal(err)
		}
		want, err := ProjectLargestClass(loaded)
		if err != nil {
			t.Fatal(err)
		}
		if !table.Equal(got, want) || got.Name != want.Name {
			t.Fatalf("%s: streamed table %q differs from the graph projection %q", c.name, got.Name, want.Name)
		}
		for j, wc := range want.Columns() {
			gc := got.Columns()[j]
			if !slices.Equal(gc.Levels(), wc.Levels()) || !slices.Equal(gc.Cats, wc.Cats) {
				t.Fatalf("%s: column %q levels %v codes %v, want %v %v",
					c.name, wc.Name, gc.Levels(), gc.Cats, wc.Levels(), wc.Cats)
			}
		}
	}
}

// TestIngestFileBadSyntax: a malformed .nt or .ttl fails with
// oberr.ErrBadSyntax, naming the same line with the same message as the
// graph reader of that format.
func TestIngestFileBadSyntax(t *testing.T) {
	const ok = "<http://ex.org/a> <http://ex.org/p> \"1\" .\n"
	for _, c := range []struct {
		name, doc string
		line      int
		read      func(io.Reader) (*rdf.Graph, error)
	}{
		{"bad.nt", ok + "\n" + "<http://ex.org/a> <http://ex.org/p> oops .\n" + ok, 3, rdf.ReadNTriples},
		{"bad.ttl", "@prefix ex: <http://ex.org/> .\n" + ok + "ex:a ex:p ex:b ex:c .\n", 3, rdf.ReadTurtle},     // parser
		{"lex.ttl", "@prefix ex: <http://ex.org/> .\n" + ok + ok + "ex:a ex:p 'single' .\n", 4, rdf.ReadTurtle}, // tokenizer
	} {
		_, err := IngestFile(writeTemp(t, c.name, c.doc))
		var se *oberr.SyntaxError
		if !errors.Is(err, oberr.ErrBadSyntax) || !errors.As(err, &se) || se.Line != c.line {
			t.Fatalf("%s: err = %v, want ErrBadSyntax on line %d", c.name, err, c.line)
		}
		_, want := c.read(strings.NewReader(c.doc))
		if want == nil || err.Error() != want.Error() {
			t.Fatalf("%s: err = %q, graph reader says %v", c.name, err, want)
		}
	}
}
