package rdf

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"openbi/internal/oberr"
	"openbi/internal/table"
)

// randomGraph builds a seeded random graph exercising everything the
// projection and profiling paths care about: several classes, numeric and
// nominal properties, multi-valued properties, dangling and resolvable
// links, sameAs mirrors, labels, blank nodes, colliding local names and
// escaped characters.
func randomGraph(seed int64, entities int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := NewGraph()
	typePred := NewIRI(RDFType)
	labelPred := NewIRI(RDFSLabel)
	sameAs := NewIRI(OWLSameAs)
	classes := []Term{NewIRI("http://ex.org/def/City"), NewIRI("http://ex.org/def/Region")}
	pop := NewIRI("http://ex.org/def/pop")
	name := NewIRI("http://ex.org/def/name")
	nameClash := NewIRI("http://other.org/vocab#name") // same local name
	link := NewIRI("http://ex.org/def/link")
	for i := 0; i < entities; i++ {
		s := NewIRI(fmt.Sprintf("http://ex.org/e/%d", i))
		if rng.Intn(10) > 0 { // some subjects stay classless
			g.Add(Triple{S: s, P: typePred, O: classes[rng.Intn(len(classes))]})
		}
		if rng.Intn(10) > 1 {
			g.Add(Triple{S: s, P: pop, O: NewInteger(int64(rng.Intn(100000)))})
		}
		switch rng.Intn(4) {
		case 0:
			g.Add(Triple{S: s, P: name, O: NewLiteral(fmt.Sprintf("entity %d \"quoted\"", i))})
		case 1:
			g.Add(Triple{S: s, P: name, O: NewLangLiteral(fmt.Sprintf("entité\n%d", i), "fr")})
		case 2:
			g.Add(Triple{S: s, P: nameClash, O: NewLiteral(fmt.Sprintf("alt %d", i))})
		}
		for k := 0; k < rng.Intn(3); k++ { // multi-valued links, some dangling
			target := fmt.Sprintf("http://ex.org/e/%d", rng.Intn(entities*2))
			g.Add(Triple{S: s, P: link, O: NewIRI(target)})
		}
		if rng.Intn(6) == 0 {
			g.Add(Triple{S: s, P: sameAs, O: NewIRI(fmt.Sprintf("http://mirror.org/e/%d", i))})
		}
		if rng.Intn(8) == 0 {
			g.Add(Triple{S: NewBlank(fmt.Sprintf("b%d", i)), P: labelPred, O: NewLiteral("anon")})
		}
	}
	return g
}

func collectStream(t *testing.T, data []byte, format string) (*Graph, error) {
	t.Helper()
	g := NewGraph()
	err := Stream(bytes.NewReader(data), format, func(tr Triple) error {
		g.Add(tr)
		return nil
	})
	return g, err
}

// sameGraph reports whether two graphs hold the same triple set.
func sameGraph(a, b *Graph) bool {
	if a.Len() != b.Len() {
		return false
	}
	in := make(map[Triple]bool, a.Len())
	for _, tr := range a.Triples() {
		in[tr] = true
	}
	for _, tr := range b.Triples() {
		if !in[tr] {
			return false
		}
	}
	return true
}

// TestStreamNTriplesMatchesBatch streams serialized random graphs and
// checks triple-for-triple agreement with ReadNTriples.
func TestStreamNTriplesMatchesBatch(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		g := randomGraph(seed, 40)
		var buf bytes.Buffer
		if err := WriteNTriples(&buf, g); err != nil {
			t.Fatal(err)
		}
		batch, err := ReadNTriples(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := collectStream(t, buf.Bytes(), "nt")
		if err != nil {
			t.Fatalf("seed %d: stream failed: %v", seed, err)
		}
		if !sameGraph(batch, streamed) {
			t.Fatalf("seed %d: stream (%d) != batch (%d)", seed, streamed.Len(), batch.Len())
		}
	}
}

// fixedReads delivers at most n bytes per Read.
type fixedReads struct {
	r io.Reader
	n int
}

func (f fixedReads) Read(p []byte) (int, error) { return f.r.Read(p[:min(len(p), f.n)]) }

// streamTurtle collects the triples StreamTurtle delivers from r, in order,
// up to its error.
func streamTurtle(r io.Reader) ([]Triple, error) {
	var got []Triple
	err := StreamTurtle(r, func(tr Triple) error {
		got = append(got, tr)
		return nil
	})
	return got, err
}

// checkReadSplits decodes doc in one read, in one-byte reads, in halves
// of each request (iotest.HalfReader) and in 7-byte reads. Every split must
// give the verdict, the triples in order and the error text of the single
// read, which it returns.
func checkReadSplits(t *testing.T, doc string) ([]Triple, error) {
	t.Helper()
	want, werr := streamTurtle(strings.NewReader(doc))
	for _, split := range []struct {
		name string
		r    io.Reader
	}{
		{"one-byte reads", iotest.OneByteReader(strings.NewReader(doc))},
		{"half reads", iotest.HalfReader(strings.NewReader(doc))},
		{"7-byte reads", fixedReads{strings.NewReader(doc), 7}},
	} {
		got, err := streamTurtle(split.r)
		if fmt.Sprint(err) != fmt.Sprint(werr) || !slices.Equal(got, want) {
			t.Fatalf("%s diverge from one read:\n%s: %d triples, err %v\none read: %d triples, err %v\ndoc: %q",
				split.name, split.name, len(got), err, len(want), werr, doc)
		}
	}
	return want, werr
}

// TestStreamTurtleMatchesBatch reads the Turtle writer's output (prefixes,
// ';'/',' abbreviation) and hand-written edge cases aimed at every place a
// '.' does not end a statement, both whole and split at every offset the
// read patterns of checkReadSplits produce: the split reads must match the
// single read, the accepted documents must parse and the rejected ones
// must fail with ErrBadSyntax.
func TestStreamTurtleMatchesBatch(t *testing.T) {
	accepted := []string{
		"",
		"# only a comment\n",
		"@prefix ex: <http://ex.org/> .\nex:a ex:b ex:c .",
		"PREFIX ex: <http://ex.org/>\nex:a a ex:C .",
		"@prefix ex: <http://ex.org/> .", // trailing directive, no statement
		"<http://a> <http://b> 3.14 .",
		"<http://a> <http://b> 3. <http://a> <http://b2> .5 .", // terminator glued to a digit-less dot
		"<http://a> <http://b> _:x.y .",                        // internal dot in blank label
		"<http://a> <http://b> _:x. <http://a> <http://c> _:z .",
		"<http://a> <http://b> \"dot . inside\" .",
		"<http://a> <http://b> \"\"\"long . with\n dots .\n\"\"\" .",
		"<http://a> <http://b> \"esc \\\" . quote\" .",
		"<http://a.b/c.d> <http://p.q/r> <http://x.y/z> .", // dots inside IRIs
		"<http://a> <http://b> <http://c> . # trailing comment with . dot\n<http://a> <http://d> 1 .",
		"@base <http://base.org/> .\n</rel> <http://p> <#frag> .",
		"<http://a> <http://b> \"v\"@en-GB ; <http://c> 42, true, false .",
		"<http://a> <http://b> \"typed\"^^<http://dt.org/t> .",
		"@prefix : <http://ex.org/> .\n:a :b :c .",
		"<http://a> <http://b> 1e+5, -2.5E-3, +7 .",
	}
	rejected := []string{
		"ex:a ex:b ex:c .",                 // undeclared prefix
		"<http://a> <http://b> <http://c>", // missing final dot
		"<http://a> <http://b> 'bad' .",
		"<http://a> <http://b> \"unterminated .",
		"<http://a> <http://b> <never-closed .",
		"<http://a> .",
		". .",
		"<http://a> <http://b> <http://c> .\n0.A00", // lexing error after a complete statement
	}
	for seed := int64(1); seed <= 3; seed++ {
		g := randomGraph(seed, 25)
		var buf bytes.Buffer
		if err := WriteTurtle(&buf, g, map[string]string{"ex": "http://ex.org/def/"}); err != nil {
			t.Fatal(err)
		}
		accepted = append(accepted, buf.String())
	}
	for _, doc := range accepted {
		if _, err := checkReadSplits(t, doc); err != nil {
			t.Fatalf("rejected %q: %v", doc, err)
		}
	}
	for _, doc := range rejected {
		if _, err := checkReadSplits(t, doc); !errors.Is(err, oberr.ErrBadSyntax) {
			t.Fatalf("%q: err = %v, want ErrBadSyntax", doc, err)
		}
	}
}

// TestStreamTurtleSmallChunks decodes a document one byte per read, so a
// window boundary falls inside every token, and checks it against
// ReadTurtle's single read.
func TestStreamTurtleSmallChunks(t *testing.T) {
	doc := "@prefix ex: <http://ex.org/> .\nex:a ex:b \"\"\"x.\"\"\", 3.5, _:l.m ; ex:c ex:d .\n"
	batch, err := ReadTurtle(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	got, err := streamTurtle(iotest.OneByteReader(strings.NewReader(doc)))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, batch.Triples()) {
		t.Fatalf("one-byte-read stream diverged: %v vs %v", got, batch.Triples())
	}
}

// TestStreamTurtleLongLiteral feeds a 4 MB long string in 512-byte reads.
// Each refill reads at least as much as is pending, so the literal is
// rescanned O(log n) times and the decode takes a small multiple of one
// read's; a rescan per Read takes minutes.
func TestStreamTurtleLongLiteral(t *testing.T) {
	part := "0123456789 \"q\" \"\"qq\"\" \\t.\n" // quotes, an escape, a dot, a newline
	body := strings.Repeat(part, (4<<20)/len(part))
	doc := "<http://a> <http://p> \"\"\"" + body + "\"\"\" .\n<http://a> <http://q> 1 ."
	start := time.Now()
	if _, err := streamTurtle(strings.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	whole := time.Since(start)
	start = time.Now()
	got, err := streamTurtle(fixedReads{strings.NewReader(doc), 512})
	if err != nil {
		t.Fatal(err)
	}
	split := time.Since(start)
	t.Logf("%d-byte literal: %v in one read, %v in 512-byte reads", len(body), whole, split)
	if split > 20*whole+time.Second {
		t.Fatalf("512-byte reads took %v, one read %v: the literal is rescanned per Read", split, whole)
	}
	want := strings.ReplaceAll(body, `\t`, "\t")
	if len(got) != 2 {
		t.Fatalf("got %d triples, want 2", len(got))
	}
	if got[0].O != NewLiteral(want) || got[1].O != NewTypedLiteral("1", XSDInteger) {
		t.Fatalf("objects differ: literal of %d bytes (want %d), then %v", len(got[0].O.Value), len(want), got[1].O)
	}
}

// TestStreamConsumerErrorPropagates checks that a TripleFunc error stops
// the stream and comes back unwrapped (not retagged as a syntax error).
func TestStreamConsumerErrorPropagates(t *testing.T) {
	sentinel := errors.New("stop here")
	for _, tc := range []struct{ format, doc string }{
		{"nt", "<http://a> <http://b> <http://c> .\n<http://a> <http://b> <http://d> .\n"},
		{"ttl", "<http://a> <http://b> <http://c>, <http://d> ."},
	} {
		n := 0
		err := Stream(strings.NewReader(tc.doc), tc.format, func(Triple) error {
			n++
			return sentinel
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("%s: want sentinel error back, got %v", tc.format, err)
		}
		if errors.Is(err, oberr.ErrBadSyntax) {
			t.Fatalf("%s: consumer error retagged as syntax error", tc.format)
		}
		if n != 1 {
			t.Fatalf("%s: fn called %d times after erroring, want 1", tc.format, n)
		}
	}
}

// TestStreamSyntaxErrors checks the oberr taxonomy on malformed input and
// unknown formats.
func TestStreamSyntaxErrors(t *testing.T) {
	err := Stream(strings.NewReader("not a triple\n"), "nt", func(Triple) error { return nil })
	if !errors.Is(err, oberr.ErrBadSyntax) {
		t.Fatalf("nt parse error should match ErrBadSyntax, got %v", err)
	}
	var se *oberr.SyntaxError
	if !errors.As(err, &se) || se.Line != 1 {
		t.Fatalf("want SyntaxError with line 1, got %#v", err)
	}
	err = Stream(strings.NewReader("# c\n\nstray ^ here"), "ttl", func(Triple) error { return nil })
	if !errors.Is(err, oberr.ErrBadSyntax) {
		t.Fatalf("ttl parse error should match ErrBadSyntax, got %v", err)
	}
	if !errors.As(err, &se) || se.Line != 3 {
		t.Fatalf("turtle SyntaxError should carry line 3, got %#v", se)
	}
	err = Stream(strings.NewReader(""), "json-ld", func(Triple) error { return nil })
	if !errors.Is(err, oberr.ErrUnsupportedFormat) {
		t.Fatalf("unknown format should match ErrUnsupportedFormat, got %v", err)
	}
}

// csvBytes renders a table to CSV for byte-identity comparison.
func csvBytes(t *testing.T, tb *table.Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := table.WriteCSV(&buf, tb); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStreamProjectMatchesProject is the projection equivalence property:
// on seeded random graphs, StreamProject over the serialized graph and
// Project over the loaded graph must each produce a table byte-identical
// (as CSV) to projectReference, the independent graph-walking gather —
// for explicit classes, the largest class and the all-subjects default,
// with and without the subject column and level caps.
func TestStreamProjectMatchesProject(t *testing.T) {
	optVariants := []ProjectOptions{
		{},
		{LargestClass: true},
		{Class: NewIRI("http://ex.org/def/City"), IncludeSubject: true},
		{Class: NewIRI("http://ex.org/def/Region"), MaxLevels: 4},
		{LargestClass: true, NumericThreshold: 0.5},
	}
	for seed := int64(1); seed <= 6; seed++ {
		g := randomGraph(seed, 30)
		var nt bytes.Buffer
		if err := WriteNTriples(&nt, g); err != nil {
			t.Fatal(err)
		}
		for vi, opts := range optVariants {
			refT, rerr := projectReference(g, opts)
			streamT, serr := StreamProject(bytes.NewReader(nt.Bytes()), "nt", opts)
			graphT, gerr := Project(g, opts)
			for _, got := range []struct {
				path string
				t    *table.Table
				err  error
			}{{"StreamProject", streamT, serr}, {"Project", graphT, gerr}} {
				if (rerr == nil) != (got.err == nil) {
					t.Fatalf("seed %d variant %d: error mismatch: reference %v, %s %v", seed, vi, rerr, got.path, got.err)
				}
				if rerr != nil {
					continue
				}
				if gotCSV, wantCSV := csvBytes(t, got.t), csvBytes(t, refT); !bytes.Equal(gotCSV, wantCSV) {
					t.Fatalf("seed %d variant %d: %s CSV differs\n--- %s\n%s\n--- reference\n%s",
						seed, vi, got.path, got.path, gotCSV, wantCSV)
				}
				if got.t.Name != refT.Name {
					t.Fatalf("seed %d variant %d: %s table name %q != %q", seed, vi, got.path, got.t.Name, refT.Name)
				}
			}
		}
	}
}

// TestStreamProjectDuplicateTriples feeds raw duplicates (which a Graph
// deduplicates on load) and checks the projector's internal dedup keeps
// the outputs identical — including the #count columns.
func TestStreamProjectDuplicateTriples(t *testing.T) {
	g := randomGraph(9, 20)
	var nt bytes.Buffer
	for range 2 { // every triple twice
		if err := WriteNTriples(&nt, g); err != nil {
			t.Fatal(err)
		}
	}
	opts := ProjectOptions{LargestClass: true, IncludeSubject: true}
	batchT, err := projectReference(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	streamT, err := StreamProject(bytes.NewReader(nt.Bytes()), "nt", opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := csvBytes(t, streamT), csvBytes(t, batchT); !bytes.Equal(got, want) {
		t.Fatalf("duplicated stream changed projection:\n--- stream\n%s\n--- batch\n%s", got, want)
	}
}

// TestProjectThresholdValidation pins the NumericThreshold contract: zero
// defaults to 0.9 on every entry point, anything outside (0,1] fails with
// ErrBadConfig.
func TestProjectThresholdValidation(t *testing.T) {
	g := randomGraph(3, 10)
	var nt bytes.Buffer
	if err := WriteNTriples(&nt, g); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{-0.1, 1.5, 2} {
		if _, err := Project(g, ProjectOptions{NumericThreshold: bad}); !errors.Is(err, oberr.ErrBadConfig) {
			t.Fatalf("Project(threshold=%v) err = %v, want ErrBadConfig", bad, err)
		}
		if _, err := StreamProject(bytes.NewReader(nt.Bytes()), "nt", ProjectOptions{NumericThreshold: bad}); !errors.Is(err, oberr.ErrBadConfig) {
			t.Fatalf("StreamProject(threshold=%v) err = %v, want ErrBadConfig", bad, err)
		}
		if _, err := NewProjector(ProjectOptions{NumericThreshold: bad}); !errors.Is(err, oberr.ErrBadConfig) {
			t.Fatalf("NewProjector(threshold=%v) err = %v, want ErrBadConfig", bad, err)
		}
	}
	defaulted, err := Project(g, ProjectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := Project(g, ProjectOptions{NumericThreshold: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csvBytes(t, defaulted), csvBytes(t, explicit)) {
		t.Fatal("zero-value NumericThreshold does not behave like the documented 0.9 default")
	}
}

// TestFileFormat: the one extension→format mapping IngestFile, `openbi
// profile` and `openbi ingest` share ignores case.
func TestFileFormat(t *testing.T) {
	for path, want := range map[string]string{
		"a.nt": "nt", "dir.ttl/A.NT": "nt", "b.ttl": "ttl", "B.Ttl": "ttl",
		"c.csv": "", "-": "", "nt": "", "d.nt.gz": "",
	} {
		if got := FileFormat(path); got != want {
			t.Errorf("FileFormat(%q) = %q, want %q", path, got, want)
		}
	}
}
