package rdf

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParseNTriples hunts for parser crashes and writer/parser round-trip
// breaks: any graph the parser accepts must serialize to N-Triples that
// parse back to the same number of (deduplicated) triples. Historically
// this property caught IRIs whose \uXXXX escapes decoded to '>' or
// newlines — written raw, they tore the output line apart.
func FuzzParseNTriples(f *testing.F) {
	seeds := []string{
		"",
		"# comment only\n",
		"<http://a> <http://b> <http://c> .",
		"<http://a> <http://b> \"lit\" .",
		"<http://a> <http://b> \"v\"@en-GB .",
		"<http://a> <http://b> \"3.4\"^^<http://www.w3.org/2001/XMLSchema#double> .",
		"_:b1 <http://b> _:b2 .",
		"<http://a> <http://b> \"tab\\t nl\\n q\\\" bs\\\\\" .",
		"<http://a> <http://b> \"\\u00e9\\U0001F600\" .",
		"<http://a\\u003e> <http://b> \"escaped gt in iri\" .",
		"<http://a> <http://b> \"unterminated",
		"<http://a> <http://b> .",
		"<http://a> <http://b> <http://c> . trailing",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadNTriples(strings.NewReader(input))
		if err != nil {
			return // rejecting malformed input is fine; crashing is not
		}
		var buf bytes.Buffer
		if err := WriteNTriples(&buf, g); err != nil {
			t.Fatalf("serializing parsed graph: %v", err)
		}
		g2, err := ReadNTriples(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("round-trip parse failed: %v\ninput: %q\nwrote: %q", err, input, buf.String())
		}
		if g2.Len() != g.Len() {
			t.Fatalf("round-trip changed triple count %d -> %d\ninput: %q\nwrote: %q",
				g.Len(), g2.Len(), input, buf.String())
		}
	})
}

// FuzzParseTurtle stresses the Turtle tokenizer + parser: anything it
// accepts must come back as the same triple set through both writers —
// parse → WriteTurtle → parse and parse → WriteNTriples → ReadNTriples
// (the two parsers share the term model, so a graph valid in one must
// round-trip through the other).
func FuzzParseTurtle(f *testing.F) {
	seeds := []string{
		"",
		"@prefix ex: <http://ex.org/> .\nex:a ex:b ex:c .",
		"PREFIX ex: <http://ex.org/>\nex:a a ex:C .",
		"@base <http://ex.org/> .\n</a> <b> <#c> .",
		"<http://a> <http://b> \"v\"@en ; <http://c> 42, 3.14, 1e-3, true .",
		"_:x <http://p> \"\"\"long\nstring\"\"\" .",
		"<http://a> <http://p> \"typed\"^^<http://dt> .",
		"@prefix ex: <http://ex.org/> .\nex:a ex:p \"x\"^^ex:dt .",
		"# comment\n<http://a> <http://b> -7 .",
		"<http://a> <http://b> .5 .",
		"@prefix : <http://ex.org/> .\n:a :b :c .",
		"<http://a> <http://b> 'bad quote' .",
		"@prefix ex <http://missing-colon> .",
		"<http://a> <http://b> \"\\u00e9\\b\\f\\'\" .",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadTurtle(strings.NewReader(input))
		if err != nil {
			return
		}
		var ttl bytes.Buffer
		if err := WriteTurtle(&ttl, g, map[string]string{"ex": "http://ex.org/"}); err != nil {
			t.Fatalf("serializing parsed graph: %v", err)
		}
		back, err := ReadTurtle(bytes.NewReader(ttl.Bytes()))
		if err != nil {
			t.Fatalf("turtle graph does not round-trip as turtle: %v\ninput: %q\nwrote: %q", err, input, ttl.String())
		}
		if !sameGraph(g, back) {
			t.Fatalf("turtle round trip changed the triples\ninput: %q\nwrote: %q", input, ttl.String())
		}
		var nt bytes.Buffer
		if err := WriteNTriples(&nt, g); err != nil {
			t.Fatalf("serializing parsed graph: %v", err)
		}
		back, err = ReadNTriples(bytes.NewReader(nt.Bytes()))
		if err != nil {
			t.Fatalf("turtle graph does not round-trip as n-triples: %v\ninput: %q\nwrote: %q",
				err, input, nt.String())
		}
		if !sameGraph(g, back) {
			t.Fatalf("n-triples round trip changed the triples\ninput: %q\nwrote: %q", input, nt.String())
		}
	})
}
