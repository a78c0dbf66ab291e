package rdf

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
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

func TestGraphMatchPatterns(t *testing.T) {
	g := buildTestGraph()
	s := NewIRI("http://m/1")
	if got := len(g.Match(&s, nil, nil)); got != 3 {
		t.Fatalf("subject match = %d, want 3", got)
	}
	p := NewIRI("http://d/pop")
	if got := len(g.Match(nil, &p, nil)); got != 2 {
		t.Fatalf("predicate match = %d, want 2", got)
	}
	o := NewIRI("http://r/1")
	if got := len(g.Match(nil, nil, &o)); got != 2 {
		t.Fatalf("object match = %d, want 2 (inRegion links)", got)
	}
	if got := len(g.Match(&s, &p, nil)); got != 1 {
		t.Fatalf("s+p match = %d, want 1", got)
	}
	if got := len(g.Match(nil, nil, nil)); got != g.Len() {
		t.Fatalf("full scan = %d, want %d", got, g.Len())
	}
}

func TestSubjectsOfType(t *testing.T) {
	g := buildTestGraph()
	muns := g.SubjectsOfType(NewIRI("http://d/Mun"))
	if len(muns) != 2 {
		t.Fatalf("municipalities = %d", len(muns))
	}
	// Deterministic sorted order.
	if muns[0].Value != "http://m/1" || muns[1].Value != "http://m/2" {
		t.Fatalf("order = %v", muns)
	}
}

func TestClasses(t *testing.T) {
	g := buildTestGraph()
	cls := g.Classes()
	if len(cls) != 2 {
		t.Fatalf("classes = %v", cls)
	}
}

func TestPropertyValuesAndFirst(t *testing.T) {
	g := buildTestGraph()
	vals := g.PropertyValues(NewIRI("http://m/1"), NewIRI("http://d/pop"))
	if len(vals) != 1 || vals[0].Value != "1000" {
		t.Fatalf("PropertyValues = %v", vals)
	}
	if _, ok := g.FirstValue(NewIRI("http://m/1"), NewIRI("http://d/none")); ok {
		t.Fatal("FirstValue on absent predicate should report false")
	}
}

func TestDegreesAndStats(t *testing.T) {
	g := buildTestGraph()
	if g.OutDegree(NewIRI("http://m/1")) != 3 {
		t.Fatalf("out degree = %d", g.OutDegree(NewIRI("http://m/1")))
	}
	if g.InDegree(NewIRI("http://r/1")) != 2 {
		t.Fatalf("in degree = %d", g.InDegree(NewIRI("http://r/1")))
	}
	st := g.Stats()
	if st.Triples != 7 || st.Subjects != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if st.LiteralTriples != 2 {
		t.Fatalf("literal triples = %d", st.LiteralTriples)
	}
	if st.IRIObjectLinks != 5 {
		t.Fatalf("IRI object links = %d", st.IRIObjectLinks)
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
	if back.Len() != g.Len() {
		t.Fatalf("roundtrip Len = %d, want %d", back.Len(), g.Len())
	}
	for _, tr := range g.Triples() {
		if !back.Has(tr) {
			t.Fatalf("roundtrip lost %v", tr)
		}
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
	typ := NewIRI(RDFType)
	if v, ok := g.FirstValue(subj, typ); !ok || v.Value != "http://example.org/Municipality" {
		t.Fatal("'a' keyword not expanded")
	}
	if v, ok := g.FirstValue(subj, NewIRI("http://example.org/pop")); !ok || v.Datatype != XSDInteger || v.Value != "1000" {
		t.Fatalf("integer literal = %+v", v)
	}
	if v, ok := g.FirstValue(subj, NewIRI("http://example.org/rate")); !ok || v.Datatype != XSDDecimal {
		t.Fatalf("decimal literal = %+v", v)
	}
	if v, ok := g.FirstValue(subj, NewIRI("http://example.org/active")); !ok || v.Datatype != XSDBoolean {
		t.Fatalf("boolean literal = %+v", v)
	}
	if v, ok := g.FirstValue(subj, NewIRI("http://example.org/label")); !ok || v.Lang != "es" {
		t.Fatalf("lang literal = %+v", v)
	}
	linked := g.PropertyValues(subj, NewIRI("http://example.org/linked"))
	if len(linked) != 2 {
		t.Fatalf("object list = %v", linked)
	}
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
	if back.Len() != g.Len() {
		t.Fatalf("roundtrip Len = %d, want %d", back.Len(), g.Len())
	}
	for _, tr := range g.Triples() {
		if !back.Has(tr) {
			t.Fatalf("roundtrip lost %v", tr)
		}
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
