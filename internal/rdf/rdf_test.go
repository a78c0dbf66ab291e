package rdf

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"openbi/internal/oberr"
)

func TestTermString(t *testing.T) {
	cases := []struct {
		term Term
		want string
	}{
		{NewIRI("http://x/a"), "<http://x/a>"},
		{NewBlank("b1"), "_:b1"},
		{NewLiteral("hi"), `"hi"`},
		{NewLangLiteral("hola", "es"), `"hola"@es`},
		{NewTypedLiteral("5", XSDInteger), `"5"^^<http://www.w3.org/2001/XMLSchema#integer>`},
		{NewLiteral("a\"b\nc"), `"a\"b\nc"`},
	}
	for _, c := range cases {
		if got := c.term.String(); got != c.want {
			t.Errorf("String() = %s, want %s", got, c.want)
		}
	}
}

func TestLocalName(t *testing.T) {
	cases := []struct{ iri, want string }{
		{"http://x/def#population", "population"},
		{"http://x/def/population", "population"},
		{"http://x/def/population/", "population"},
		{"urn:thing", "urn:thing"},
	}
	for _, c := range cases {
		if got := NewIRI(c.iri).LocalName(); got != c.want {
			t.Errorf("LocalName(%s) = %s, want %s", c.iri, got, c.want)
		}
	}
}

func TestNumericLiteral(t *testing.T) {
	if !NewInteger(5).IsNumericLiteral() || !NewDouble(1.5).IsNumericLiteral() {
		t.Fatal("typed numbers should be numeric literals")
	}
	if NewLiteral("5").IsNumericLiteral() {
		t.Fatal("plain literal is not a *typed* numeric literal")
	}
}

func tri(s, p, o string) Triple {
	return Triple{S: NewIRI(s), P: NewIRI(p), O: NewIRI(o)}
}

// TestDictDenseIDs: ids are dense in first-seen order, interning is
// idempotent, Lookup never interns, and terms that differ only in kind,
// language tag or datatype get ids of their own.
func TestDictDenseIDs(t *testing.T) {
	terms := []Term{
		NewIRI("http://x/a"),
		NewBlank("http://x/a"),
		NewLiteral("http://x/a"),
		NewLangLiteral("http://x/a", "en"),
		NewTypedLiteral("http://x/a", XSDString),
	}
	d := NewDict()
	if _, ok := d.Lookup(terms[0]); ok || d.Len() != 0 {
		t.Fatalf("Lookup on an empty dictionary found a term or interned it (Len %d)", d.Len())
	}
	for pass := 0; pass < 2; pass++ {
		for i, term := range terms {
			if id := d.ID(term); id != uint32(i) {
				t.Fatalf("pass %d: ID(%v) = %d, want %d", pass, term, id, i)
			}
		}
	}
	if d.Len() != len(terms) {
		t.Fatalf("Len = %d, want %d", d.Len(), len(terms))
	}
	for i, term := range terms {
		if got := d.Term(uint32(i)); got != term {
			t.Fatalf("Term(%d) = %v, want %v", i, got, term)
		}
		if id, ok := d.Lookup(term); !ok || id != uint32(i) {
			t.Fatalf("Lookup(%v) = %d, %v", term, id, ok)
		}
	}
}

func TestGraphAddDeduplicates(t *testing.T) {
	g := NewGraph()
	if !g.Add(tri("http://a", "http://p", "http://b")) {
		t.Fatal("first add should be new")
	}
	if g.Add(tri("http://a", "http://p", "http://b")) {
		t.Fatal("second add should dedupe")
	}
	if g.Len() != 1 {
		t.Fatalf("Len = %d", g.Len())
	}
}

func buildTestGraph() *Graph {
	g := NewGraph()
	g.Add(tri("http://m/1", RDFType, "http://d/Mun"))
	g.Add(tri("http://m/2", RDFType, "http://d/Mun"))
	g.Add(tri("http://r/1", RDFType, "http://d/Region"))
	g.Add(Triple{S: NewIRI("http://m/1"), P: NewIRI("http://d/pop"), O: NewInteger(1000)})
	g.Add(Triple{S: NewIRI("http://m/2"), P: NewIRI("http://d/pop"), O: NewInteger(2000)})
	g.Add(tri("http://m/1", "http://d/inRegion", "http://r/1"))
	g.Add(tri("http://m/2", "http://d/inRegion", "http://r/1"))
	return g
}

func TestDegreesAndStats(t *testing.T) {
	g := buildTestGraph()
	st := g.Stats()
	if st.Triples != 7 || st.Subjects != 3 || st.Predicates != 3 || st.Objects != 5 {
		t.Fatalf("stats = %+v", st)
	}
	if st.LiteralTriples != 2 {
		t.Fatalf("literal triples = %d", st.LiteralTriples)
	}
	if st.IRIObjectLinks != 5 {
		t.Fatalf("IRI object links = %d", st.IRIObjectLinks)
	}
	// m/1 and m/2 carry three triples each; five IRI-object links point at
	// three distinct IRIs (Mun twice, Region once, r/1 twice).
	if st.MaxOutDegree != 3 || st.AvgOutDegree != 7.0/3 || st.AvgInDegree != 5.0/3 {
		t.Fatalf("degrees = max out %d, avg out %v, avg in %v", st.MaxOutDegree, st.AvgOutDegree, st.AvgInDegree)
	}
}

func TestNTriplesRoundtrip(t *testing.T) {
	g := buildTestGraph()
	g.Add(Triple{S: NewBlank("x"), P: NewIRI("http://d/label"),
		O: NewLangLiteral("café \"especial\"\nnew", "es")})
	var buf bytes.Buffer
	if err := WriteNTriples(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadNTriples(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !sameGraph(back, g) {
		t.Fatalf("roundtrip gave %d triples %v, want %v", back.Len(), back.Triples(), g.Triples())
	}
}

func TestReadNTriplesComments(t *testing.T) {
	in := "# comment\n\n<http://a> <http://p> \"v\" .\n"
	g, err := ReadNTriples(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 1 {
		t.Fatalf("Len = %d", g.Len())
	}
}

func TestReadNTriplesUnicodeEscape(t *testing.T) {
	in := `<http://a> <http://p> "café" .` + "\n"
	g, err := ReadNTriples(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	tr := g.Triples()[0]
	if tr.O.Value != "café" {
		t.Fatalf("unicode escape = %q", tr.O.Value)
	}
}

// TestLiteralEscapesAgree: every escape the W3C grammars allow in a
// literal decodes to the same term whether the line is read as N-Triples
// or, byte for byte, as Turtle; any other escape is rejected by both.
func TestLiteralEscapesAgree(t *testing.T) {
	for _, c := range []struct{ esc, want string }{
		{`\t`, "\t"}, {`\b`, "\b"}, {`\n`, "\n"}, {`\r`, "\r"}, {`\f`, "\f"},
		{`\"`, `"`}, {`\'`, "'"}, {`\\`, `\`},
		{`\u00e9`, "é"}, {`\U0001F600`, "😀"},
	} {
		line := `<http://a> <http://p> "caf` + c.esc + `" .` + "\n"
		want := Triple{S: NewIRI("http://a"), P: NewIRI("http://p"), O: NewLiteral("caf" + c.want)}
		for _, read := range []func(io.Reader) (*Graph, error){ReadNTriples, ReadTurtle} {
			g, err := read(strings.NewReader(line))
			if err != nil {
				t.Fatalf("%s: %v", c.esc, err)
			}
			if got := g.Triples(); len(got) != 1 || got[0] != want {
				t.Fatalf("%s: got %v, want %v", c.esc, got, want)
			}
		}
	}
	bad := `<http://a> <http://p> "caf\x" .` + "\n"
	for _, read := range []func(io.Reader) (*Graph, error){ReadNTriples, ReadTurtle} {
		if _, err := read(strings.NewReader(bad)); !errors.Is(err, oberr.ErrBadSyntax) {
			t.Fatalf("\\x escape: err = %v, want ErrBadSyntax", err)
		}
	}
}

func TestReadNTriplesErrors(t *testing.T) {
	bad := []string{
		`<http://a> <http://p> "v"`,            // missing dot
		`"lit" <http://p> <http://o> .`,        // literal subject
		`<http://a> _:b <http://o> .`,          // blank predicate
		`<http://a> <http://p> <http://o> . x`, // trailing garbage
		`<http://a <http://p> <http://o> .`,    // unterminated IRI
	}
	for _, in := range bad {
		if _, err := ReadNTriples(strings.NewReader(in + "\n")); err == nil {
			t.Errorf("expected error for %q", in)
		}
	}
}

func TestReadTurtleBasics(t *testing.T) {
	in := `@prefix ex: <http://example.org/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .

ex:m1 a ex:Municipality ;
    ex:pop 1000 ;
    ex:rate 3.5 ;
    ex:active true ;
    ex:label "Alicante"@es ;
    ex:area "12.5"^^xsd:decimal ;
    ex:linked ex:m2, ex:m3 .
`
	g, err := ReadTurtle(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 8 {
		t.Fatalf("Len = %d, want 8", g.Len())
	}
	subj := NewIRI("http://example.org/m1")
	first := func(pred string) Term {
		t.Helper()
		vals := objectsOf(g, subj, NewIRI(pred))
		if len(vals) == 0 {
			t.Fatalf("no value for %s", pred)
		}
		return vals[0]
	}
	if v := first(RDFType); v.Value != "http://example.org/Municipality" {
		t.Fatal("'a' keyword not expanded")
	}
	if v := first("http://example.org/pop"); v.Datatype != XSDInteger || v.Value != "1000" {
		t.Fatalf("integer literal = %+v", v)
	}
	if v := first("http://example.org/rate"); v.Datatype != XSDDecimal {
		t.Fatalf("decimal literal = %+v", v)
	}
	if v := first("http://example.org/active"); v.Datatype != XSDBoolean {
		t.Fatalf("boolean literal = %+v", v)
	}
	if v := first("http://example.org/label"); v.Lang != "es" {
		t.Fatalf("lang literal = %+v", v)
	}
	linked := objectsOf(g, subj, NewIRI("http://example.org/linked"))
	if len(linked) != 2 {
		t.Fatalf("object list = %v", linked)
	}
}

// objectsOf returns the objects of (s, p, ?) in insertion order.
func objectsOf(g *Graph, s, p Term) []Term {
	var out []Term
	for _, tr := range g.Triples() {
		if tr.S == s && tr.P == p {
			out = append(out, tr.O)
		}
	}
	return out
}

func TestReadTurtleBase(t *testing.T) {
	in := `@base <http://b.org/> .
<m1> <p> <m2> .
`
	g, err := ReadTurtle(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	tr := g.Triples()[0]
	if tr.S.Value != "http://b.org/m1" || tr.O.Value != "http://b.org/m2" {
		t.Fatalf("base resolution = %v", tr)
	}
}

func TestReadTurtleUndeclaredPrefix(t *testing.T) {
	if _, err := ReadTurtle(strings.NewReader("ex:a ex:b ex:c .")); err == nil {
		t.Fatal("undeclared prefix should error")
	}
}

func TestReadTurtleMissingDot(t *testing.T) {
	in := "@prefix ex: <http://e/> .\nex:a ex:b ex:c"
	if _, err := ReadTurtle(strings.NewReader(in)); err == nil {
		t.Fatal("missing final dot should error")
	}
}

func TestReadTurtleComments(t *testing.T) {
	in := "@prefix ex: <http://e/> . # ns\nex:a ex:b ex:c . # stmt\n"
	g, err := ReadTurtle(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 1 {
		t.Fatalf("Len = %d", g.Len())
	}
}

func TestWriteTurtleRoundtrip(t *testing.T) {
	g := buildTestGraph()
	var buf bytes.Buffer
	prefixes := map[string]string{"d": "http://d/", "m": "http://m/", "r": "http://r/"}
	if err := WriteTurtle(&buf, g, prefixes); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "@prefix d: <http://d/>") {
		t.Fatalf("prefix header missing:\n%s", out)
	}
	if !strings.Contains(out, " a ") {
		t.Fatalf("rdf:type not abbreviated:\n%s", out)
	}
	back, err := ReadTurtle(&buf)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, out)
	}
	if !sameGraph(back, g) {
		t.Fatalf("roundtrip gave %d triples %v, want %v", back.Len(), back.Triples(), g.Triples())
	}
}

// Property: any literal value survives an N-Triples write/read cycle.
func TestNTriplesLiteralRoundtripProperty(t *testing.T) {
	f := func(val string) bool {
		g := NewGraph()
		g.Add(Triple{S: NewIRI("http://s"), P: NewIRI("http://p"), O: NewLiteral(val)})
		var buf bytes.Buffer
		if err := WriteNTriples(&buf, g); err != nil {
			return false
		}
		back, err := ReadNTriples(&buf)
		if err != nil || back.Len() != 1 {
			return false
		}
		return back.Triples()[0].O.Value == val
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
