package rdf

import (
	"bytes"
	"strings"
	"testing"

	"openbi/internal/table"
)

// streamEquivalence is FuzzStreamNTriples' property: the streaming decoder
// must accept exactly the documents the batch parser accepts, and on
// acceptance deliver the same triple set. (On rejection the streaming
// path may have delivered a prefix of the triples before the offending
// statement — that is its documented contract — so only the verdict is
// compared.)
func streamEquivalence(t *testing.T, input string,
	batch func(string) (*Graph, error), stream func(string, TripleFunc) error) {
	t.Helper()
	bg, berr := batch(input)
	sg := NewGraph()
	serr := stream(input, func(tr Triple) error {
		sg.Add(tr)
		return nil
	})
	if (berr == nil) != (serr == nil) {
		t.Fatalf("accept mismatch:\nbatch err:  %v\nstream err: %v\ninput: %q", berr, serr, input)
	}
	if berr != nil {
		return
	}
	if !sameGraph(bg, sg) {
		t.Fatalf("triple sets differ: stream %d vs batch %d\ninput: %q", sg.Len(), bg.Len(), input)
	}
}

// FuzzStreamNTriples hunts for divergence between StreamNTriples and
// ReadNTriples. ReadNTriples is built on the streaming decoder, so this
// mostly guards the delegation (graph dedup vs raw callback delivery)
// and keeps a seed corpus flowing into the shared line grammar.
func FuzzStreamNTriples(f *testing.F) {
	seeds := []string{
		"",
		"# comment only\n",
		"<http://a> <http://b> <http://c> .",
		"<http://a> <http://b> \"lit\" .\n<http://a> <http://b> \"lit\" .\n", // duplicate
		"<http://a> <http://b> \"v\"@en-GB .",
		"<http://a> <http://b> \"3.4\"^^<http://www.w3.org/2001/XMLSchema#double> .",
		"_:b1 <http://b> _:b2 .",
		"<http://a> <http://b> \"\\u00e9\\U0001F600\" .",
		"<http://a> <http://b> \"unterminated",
		"<http://a> <http://b> <http://c> . trailing",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		streamEquivalence(t, input,
			func(s string) (*Graph, error) { return ReadNTriples(strings.NewReader(s)) },
			func(s string, fn TripleFunc) error { return StreamNTriples(strings.NewReader(s), fn) })
	})
}

// FuzzStreamTurtle holds StreamTurtle's window boundaries to read-split
// invariance: a document read in one go, one byte at a time, in halves of
// each request and seven bytes at a time must give the same verdict, the
// same triples in the same order and the same error text. Where a read
// ends must never change how a token lexes or where a statement ends.
func FuzzStreamTurtle(f *testing.F) {
	seeds := []string{
		"",
		"@prefix ex: <http://ex.org/> .\nex:a ex:b ex:c .",
		"PREFIX ex: <http://ex.org/>\nex:a a ex:C .",
		"@base <http://ex.org/> .\n</a> <b> <#c> .",
		"<http://a> <http://b> \"v\"@en ; <http://c> 42, 3.14, 1e-3, true .",
		"_:x <http://p> \"\"\"long\nstring with . dots\"\"\" .",
		"<http://a> <http://p> \"typed\"^^<http://dt> .",
		"<http://a> <http://b> .5 .",
		"<http://a> <http://b> 3. <http://a> <http://c> 4 .",
		"<http://a> <http://b> _:x.y .",
		"<http://a> <http://b> _:x. <http://a> <http://c> _:z .",
		"<http://a> <http://b> \"dot . in \\\" string\" .",
		"<http://a.b/c> <http://p> <http://x> . # comment . with dot",
		"@prefix : <http://ex.org/> .\n:a :b :c .",
		"<http://a> <http://b> 'bad quote' .",
		"<http://a> <http://b> \"\"\"unterminated long .",
		// A bare word cut by a read must not be classified ("PREF").
		"PREFIX ex: <http://ex.org/>\nPREFIX ab: <http://ab.org/>\nex:a ex:b ab:c .",
		// A blank label's trailing dots are given back only once the run
		// ends: one-byte reads end a window after "_:a...".
		"<http://a> <http://b>   _:a....b .",
		// A lexing error after a complete statement: the statement is parsed first.
		"0.A00",
		"<http://a> <http://b> 1e+5, \"\"\"x\"\"\", \"\" .",
		"<http://a> <http://b> \"caf\\u00e9 \\U0001F600\\t\" .",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		checkReadSplits(t, input)
	})
}

// FuzzStreamProject is the projection's differential target: on fuzzed
// N-Triples, StreamProject (the Projector fed by the decoder) and
// projectReference over ReadNTriples (the graph-walking gather) must
// reject the same documents with the same error and project the rest to
// the same table, byte for byte as CSV. opt picks the projection options,
// so class selection, the subject column, level caps and the numeric
// threshold are all in play.
func FuzzStreamProject(f *testing.F) {
	const ex = "<http://ex.org/"
	typ := " <" + RDFType + "> "
	seeds := []struct {
		doc string
		opt uint8
	}{
		{"", 0},
		{ex + "a>" + typ + ex + "C> .\n" + ex + "a> " + ex + "p> \"1\" .\n", 1},
		{ex + "a>" + typ + ex + "C> .\n" + ex + "b>" + typ + ex + "D> .\n" + // a tie: C wins
			ex + "a> " + ex + "p> \"x\" .\n" + ex + "b> " + ex + "p> \"2\" .\n", 1},
		{ex + "a> " + ex + "p> \"1\" .\n" + ex + "a> " + ex + "p> \"2\" .\n" + // multi-valued
			ex + "a> " + ex + "p> \"1\" .\n" + ex + "b> " + ex + "p> " + ex + "a> .\n", 2},
		{ex + "a>" + typ + "\"literal class\" .\n" + ex + "a> " + ex + "q> \"v\"@en .\n", 1},
		{ex + "a>" + typ + ex + "C> .\n", 3}, // typed but attribute-free: no columns
		{"_:b " + ex + "p> \"3.5\"^^<http://www.w3.org/2001/XMLSchema#double> .\n" +
			"_:c " + ex + "p> \"many\" .\n", 4},
		{ex + "a> " + ex + "x#n> \"1\" .\n" + ex + "a> " + ex + "y/n> \"2\" .\n", 0}, // clashing local names
		{ex + "a> " + ex + "p> \"1\" .\nnot a triple\n", 1},
	}
	for _, s := range seeds {
		f.Add(s.doc, s.opt)
	}
	variants := []ProjectOptions{
		{},
		{LargestClass: true},
		{LargestClass: true, IncludeSubject: true, MaxLevels: 1},
		{Class: NewIRI("http://ex.org/C")},
		{NumericThreshold: 0.5},
	}
	f.Fuzz(func(t *testing.T, doc string, opt uint8) {
		opts := variants[int(opt)%len(variants)]
		got, serr := StreamProject(strings.NewReader(doc), "nt", opts)
		var want *table.Table
		g, rerr := ReadNTriples(strings.NewReader(doc))
		if rerr == nil {
			want, rerr = projectReference(g, opts)
		}
		if (serr == nil) != (rerr == nil) || (serr != nil && serr.Error() != rerr.Error()) {
			t.Fatalf("verdicts differ:\nstream:    %v\nreference: %v\ndoc: %q opts: %+v", serr, rerr, doc, opts)
		}
		if serr != nil {
			return
		}
		if gotCSV, wantCSV := csvBytes(t, got), csvBytes(t, want); !bytes.Equal(gotCSV, wantCSV) || got.Name != want.Name {
			t.Fatalf("projections differ:\n--- stream %q\n%s\n--- reference %q\n%s\ndoc: %q opts: %+v",
				got.Name, gotCSV, want.Name, wantCSV, doc, opts)
		}
	})
}
