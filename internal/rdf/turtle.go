package rdf

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"
	"strings"

	"openbi/internal/oberr"
)

// ReadTurtle parses a practical subset of Turtle into a graph:
//
//   - @prefix / PREFIX declarations and prefixed names (ex:thing)
//   - @base / BASE declarations and relative IRI resolution against it
//   - the 'a' keyword for rdf:type
//   - predicate lists (';') and object lists (',')
//   - string literals with language tags and datatypes (IRI or prefixed)
//   - numeric (integer/decimal/double) and boolean literal abbreviations
//   - blank nodes (_:label) and comments
//
// Collections and anonymous blank-node property lists are not supported —
// open-data Turtle exports in the wild virtually never use them, and the
// synthetic LOD generators in this repository do not emit them.
//
// It is StreamTurtle collected into a Graph.
func ReadTurtle(r io.Reader) (*Graph, error) { return readGraph(r, StreamTurtle) }

const (
	// turtleWindow is the size of StreamTurtle's read buffer; it grows
	// only to hold a token in flight that is longer.
	turtleWindow = 64 << 10
	// turtleLookahead is the most bytes after a token's end that lexing
	// reads to decide the token: a 1 followed by e+5 is the number 1e+5.
	turtleLookahead = 3
	// bareWordStop holds the bytes that end a bare word: a prefixed name,
	// 'a', true/false or PREFIX/BASE.
	bareWordStop = " \t\r\n;,.#<>\"^@"
)

// ttKind classifies Turtle tokens.
type ttKind int

const (
	ttIRI      ttKind = iota // <...>
	ttPName                  // prefix:local or prefix: (namespace itself)
	ttBlank                  // _:label
	ttString                 // "..." (value unescaped)
	ttLangTag                // @en
	ttCaret                  // ^^
	ttNumber                 // 42, 3.14, 1e-3
	ttBoolean                // true / false
	ttA                      // a
	ttDot                    // .
	ttSemi                   // ;
	ttComma                  // ,
	ttAtPrefix               // @prefix or PREFIX
	ttAtBase                 // @base or BASE
)

type ttToken struct {
	kind ttKind
	val  string
	line int
}

// turtleErr is a Turtle syntax error on the given line (0 when unknown).
func turtleErr(line int, format string, args ...any) error {
	return &oberr.SyntaxError{Format: "turtle", Line: line, Reason: fmt.Sprintf(format, args...)}
}

// lexTurtle appends the tokens of s to toks, counting lines from line.
// Unless atEOF, s is a window of a longer stream, and lexTurtle stops
// before the first token whose lexing reached within turtleLookahead bytes
// of the window's end, since the bytes after the window could extend it or
// change its kind. It returns the tokens, the offset and line it stopped
// at, and the lexing error found there, if any.
func lexTurtle(toks []ttToken, s string, line int, atEOF bool) ([]ttToken, int, int, error) {
	i := 0
	for i < len(s) {
		switch s[i] {
		case '\n':
			line++
			i++
			continue
		case ' ', '\t', '\r':
			i++
			continue
		case '#':
			if k := strings.IndexByte(s[i:], '\n'); k >= 0 {
				i += k
				continue
			}
			if !atEOF {
				return toks, i, line, nil
			}
			return toks, len(s), line, nil
		}
		kind, val, end, seen, err := scanTurtleToken(s, i)
		if !atEOF && len(s)-seen < turtleLookahead {
			break
		}
		if err != nil {
			return toks, i, line, turtleErr(line, "%v", err)
		}
		toks = append(toks, ttToken{kind, val, line})
		if kind == ttString {
			line += strings.Count(s[i:end], "\n")
		}
		i = end
	}
	return toks, i, line, nil
}

// scanTurtleToken lexes the token at s[i], which is neither blank nor a
// comment. It returns the token's kind and value, the offset after it, and
// seen, the offset up to which its bytes were read: the end, or for a
// blank node label the end before a trailing '.' is given back. On error,
// seen is where lexing stopped, len(s) if s ran out first.
func scanTurtleToken(s string, i int) (kind ttKind, val string, end, seen int, err error) {
	switch c := s[i]; {
	case c == '<':
		j := strings.IndexByte(s[i:], '>')
		if j < 0 {
			return 0, "", 0, len(s), errors.New("unterminated IRI")
		}
		end = i + j + 1
		return ttIRI, unescapeUnicode(s[i+1 : end-1]), end, end, nil
	case c == '"':
		val, n, err := scanTurtleString(s[i:])
		return ttString, val, i + n, i + n, err
	case c == '@':
		j := i + 1
		for j < len(s) && (isAlnumByte(s[j]) || s[j] == '-') {
			j++
		}
		word := s[i+1 : j]
		switch {
		case strings.EqualFold(word, "prefix"):
			return ttAtPrefix, "", j, j, nil
		case strings.EqualFold(word, "base"):
			return ttAtBase, "", j, j, nil
		}
		return ttLangTag, word, j, j, nil
	case c == '^':
		if i+1 < len(s) && s[i+1] == '^' {
			return ttCaret, "", i + 2, i + 2, nil
		}
		return 0, "", 0, min(i+2, len(s)), errors.New("stray '^'")
	case c == '.':
		// '.' may start a decimal like .5 — only when followed by a digit.
		if i+1 < len(s) && isDigit(s[i+1]) {
			j, v := scanTurtleNumber(s, i)
			return ttNumber, v, j, j, nil
		}
		return ttDot, "", i + 1, i + 1, nil
	case c == ';':
		return ttSemi, "", i + 1, i + 1, nil
	case c == ',':
		return ttComma, "", i + 1, i + 1, nil
	case c == '_' && i+1 < len(s) && s[i+1] == ':':
		run := i + 2
		for run < len(s) && isBlankLabelByte(s[run]) {
			run++
		}
		// A trailing '.' belongs to the statement terminator, not the label.
		j := run
		for j > i+2 && s[j-1] == '.' {
			j--
		}
		if j == i+2 {
			return 0, "", 0, run, errors.New("empty blank node label")
		}
		return ttBlank, s[i+2 : j], j, run, nil
	case c == '+' || c == '-' || isDigit(c):
		j, v := scanTurtleNumber(s, i)
		return ttNumber, v, j, j, nil
	}
	// Bare word: 'a', true/false, or a prefixed name.
	j := i
	for j < len(s) && !strings.ContainsRune(bareWordStop, rune(s[j])) {
		j++
	}
	// A pname may legally contain dots internally (rare), but the subset
	// stops it at any '.', so a statement-final '.' is never glued to it.
	switch word := s[i:j]; word {
	case "":
		return 0, "", 0, i + 1, fmt.Errorf("unexpected character %q", s[i])
	case "a":
		return ttA, "", j, j, nil
	case "true", "false":
		return ttBoolean, word, j, j, nil
	case "PREFIX", "prefix":
		return ttAtPrefix, "", j, j, nil
	case "BASE", "base":
		return ttAtBase, "", j, j, nil
	default:
		if !strings.Contains(word, ":") {
			return 0, "", 0, j, fmt.Errorf("unexpected token %q", word)
		}
		return ttPName, word, j, j, nil
	}
}

// scanTurtleString scans the quoted literal at s[0] == '"', short ("...")
// or long ("""..."""), and returns its unescaped value and the offset after
// it. On error the offset is where scanning stopped, len(s) if s ran out.
func scanTurtleString(s string) (string, int, error) {
	q, stop := `"`, "\"\\\n"
	if strings.HasPrefix(s, `"""`) {
		q, stop = `"""`, "\"\\"
	}
	var b strings.Builder
	start, i := len(q), len(q) // s[start:i] is not yet copied into b
	for {
		k := strings.IndexAny(s[i:], stop)
		if k < 0 {
			return "", len(s), errors.New("unterminated string literal")
		}
		i += k
		switch {
		case strings.HasPrefix(s[i:], q):
			if start == len(q) { // no escapes: the value is a slice of s
				return s[start:i], i + len(q), nil
			}
			b.WriteString(s[start:i])
			return b.String(), i + len(q), nil
		case s[i] == '"': // a lone quote inside a long string
			i++
		case s[i] == '\n':
			return "", i + 1, errors.New("newline in short string literal")
		default: // '\\'
			r, n, err := readEscape(s[i:])
			if err != nil {
				return "", i + n, err
			}
			b.WriteString(s[start:i])
			b.WriteRune(r)
			i += n
			start = i
		}
	}
}

// scanTurtleNumber scans a numeric literal at position i and returns the
// end position and the lexical form.
func scanTurtleNumber(s string, i int) (int, string) {
	j := i
	if j < len(s) && (s[j] == '+' || s[j] == '-') {
		j++
	}
	digits := func() {
		for j < len(s) && isDigit(s[j]) {
			j++
		}
	}
	digits()
	if j < len(s) && s[j] == '.' && j+1 < len(s) && isDigit(s[j+1]) {
		j++
		digits()
	}
	if j < len(s) && (s[j] == 'e' || s[j] == 'E') {
		k := j + 1
		if k < len(s) && (s[k] == '+' || s[k] == '-') {
			k++
		}
		if k < len(s) && isDigit(s[k]) {
			j = k
			digits()
		}
	}
	return j, s[i:j]
}

type turtleParser struct {
	toks     []ttToken
	pos      int
	prefixes map[string]string
	base     string
	// emit receives each parsed triple; a non-nil return aborts parsing.
	// Prefixes and base persist across run() calls, so the streaming
	// decoder can feed the parser the complete statements of each window.
	emit func(Triple) error
}

func (p *turtleParser) eof() bool     { return p.pos >= len(p.toks) }
func (p *turtleParser) peek() ttToken { return p.toks[p.pos] }
func (p *turtleParser) next() ttToken { t := p.toks[p.pos]; p.pos++; return t }
func (p *turtleParser) errf(t ttToken, format string, args ...any) error {
	return turtleErr(t.line, format, args...)
}

// run parses every directive and statement in p.toks, emitting triples
// through p.emit.
func (p *turtleParser) run() error {
	for !p.eof() {
		t := p.peek()
		switch t.kind {
		case ttAtPrefix:
			p.next()
			if err := p.parsePrefixDecl(); err != nil {
				return err
			}
		case ttAtBase:
			p.next()
			if err := p.parseBaseDecl(); err != nil {
				return err
			}
		default:
			if err := p.parseStatement(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (p *turtleParser) parsePrefixDecl() error {
	if p.eof() || p.peek().kind != ttPName {
		return turtleErr(0, "@prefix expects 'name:'")
	}
	name := p.next()
	pfx := strings.TrimSuffix(name.val, ":")
	if p.eof() || p.peek().kind != ttIRI {
		return p.errf(name, "@prefix %s expects an IRI", pfx)
	}
	iri := p.next()
	p.prefixes[pfx] = p.resolve(iri.val)
	// Optional '.' terminator (@prefix has it, SPARQL-style PREFIX doesn't).
	if !p.eof() && p.peek().kind == ttDot {
		p.next()
	}
	return nil
}

func (p *turtleParser) parseBaseDecl() error {
	if p.eof() || p.peek().kind != ttIRI {
		return turtleErr(0, "@base expects an IRI")
	}
	p.base = p.next().val
	if !p.eof() && p.peek().kind == ttDot {
		p.next()
	}
	return nil
}

// resolve resolves a possibly relative IRI against the current base.
func (p *turtleParser) resolve(iri string) string {
	if p.base == "" || strings.Contains(iri, "://") || strings.HasPrefix(iri, "urn:") {
		return iri
	}
	if strings.HasPrefix(iri, "#") || !strings.HasPrefix(iri, "/") {
		return p.base + iri
	}
	return p.base + strings.TrimPrefix(iri, "/")
}

func (p *turtleParser) parseStatement() error {
	subj, err := p.parseSubject()
	if err != nil {
		return err
	}
	for {
		pred, err := p.parsePredicate()
		if err != nil {
			return err
		}
		for {
			obj, err := p.parseObject()
			if err != nil {
				return err
			}
			if err := p.emit(Triple{S: subj, P: pred, O: obj}); err != nil {
				return err
			}
			if !p.eof() && p.peek().kind == ttComma {
				p.next()
				continue
			}
			break
		}
		if !p.eof() && p.peek().kind == ttSemi {
			p.next()
			// A ';' may be immediately followed by '.', ending the statement.
			if !p.eof() && p.peek().kind == ttDot {
				p.next()
				return nil
			}
			continue
		}
		break
	}
	if p.eof() || p.peek().kind != ttDot {
		if p.eof() {
			return turtleErr(0, "missing '.' at end of input")
		}
		return p.errf(p.peek(), "expected '.' after statement")
	}
	p.next()
	return nil
}

func (p *turtleParser) parseSubject() (Term, error) {
	if p.eof() {
		return Term{}, turtleErr(0, "unexpected end of input (subject)")
	}
	t := p.next()
	switch t.kind {
	case ttIRI:
		return NewIRI(p.resolve(t.val)), nil
	case ttPName:
		return p.expandPName(t)
	case ttBlank:
		return NewBlank(t.val), nil
	default:
		return Term{}, p.errf(t, "invalid subject token")
	}
}

func (p *turtleParser) parsePredicate() (Term, error) {
	if p.eof() {
		return Term{}, turtleErr(0, "unexpected end of input (predicate)")
	}
	t := p.next()
	switch t.kind {
	case ttA:
		return NewIRI(RDFType), nil
	case ttIRI:
		return NewIRI(p.resolve(t.val)), nil
	case ttPName:
		return p.expandPName(t)
	default:
		return Term{}, p.errf(t, "invalid predicate token")
	}
}

func (p *turtleParser) parseObject() (Term, error) {
	if p.eof() {
		return Term{}, turtleErr(0, "unexpected end of input (object)")
	}
	t := p.next()
	switch t.kind {
	case ttIRI:
		return NewIRI(p.resolve(t.val)), nil
	case ttPName:
		return p.expandPName(t)
	case ttBlank:
		return NewBlank(t.val), nil
	case ttBoolean:
		return NewTypedLiteral(t.val, XSDBoolean), nil
	case ttNumber:
		dt := XSDInteger
		if strings.ContainsAny(t.val, "eE") {
			dt = XSDDouble
		} else if strings.Contains(t.val, ".") {
			dt = XSDDecimal
		}
		return NewTypedLiteral(t.val, dt), nil
	case ttString:
		lit := Term{Kind: Literal, Value: t.val}
		if !p.eof() && p.peek().kind == ttLangTag {
			lit.Lang = p.next().val
			return lit, nil
		}
		if !p.eof() && p.peek().kind == ttCaret {
			p.next()
			if p.eof() {
				return Term{}, turtleErr(0, "missing datatype after '^^'")
			}
			dt := p.next()
			switch dt.kind {
			case ttIRI:
				lit.Datatype = p.resolve(dt.val)
			case ttPName:
				expanded, err := p.expandPName(dt)
				if err != nil {
					return Term{}, err
				}
				lit.Datatype = expanded.Value
			default:
				return Term{}, p.errf(dt, "invalid datatype token")
			}
		}
		return lit, nil
	default:
		return Term{}, p.errf(t, "invalid object token")
	}
}

func (p *turtleParser) expandPName(t ttToken) (Term, error) {
	idx := strings.Index(t.val, ":")
	pfx, local := t.val[:idx], t.val[idx+1:]
	ns, ok := p.prefixes[pfx]
	if !ok {
		return Term{}, p.errf(t, "undeclared prefix %q", pfx)
	}
	return NewIRI(ns + local), nil
}

// WriteTurtle serializes the graph as Turtle, grouping triples by subject
// and abbreviating with ';' / ',' and the given prefix map (namespace IRI
// keyed by prefix name). Subjects are emitted in term order (TermLess),
// each with its triples in insertion order.
func WriteTurtle(w io.Writer, g *Graph, prefixes map[string]string) error {
	// Longest-namespace-first matching for abbreviation.
	type pfx struct{ name, ns string }
	var ps []pfx
	for name, ns := range prefixes {
		ps = append(ps, pfx{name, ns})
	}
	slices.SortFunc(ps, func(a, b pfx) int {
		if c := cmp.Compare(len(b.ns), len(a.ns)); c != 0 {
			return c
		}
		return strings.Compare(a.name, b.name)
	})
	abbrev := func(t Term) string {
		if t.Kind == IRI {
			if t.Value == RDFType {
				return "a"
			}
			for _, p := range ps {
				if strings.HasPrefix(t.Value, p.ns) {
					local := t.Value[len(p.ns):]
					if local != "" && !strings.ContainsAny(local, "/:"+bareWordStop) {
						return p.name + ":" + local
					}
				}
			}
		}
		return t.String()
	}

	var b strings.Builder
	// Deterministic prefix header: sort by name.
	for _, n := range slices.Sorted(maps.Keys(prefixes)) {
		fmt.Fprintf(&b, "@prefix %s: <%s> .\n", n, prefixes[n])
	}
	if len(prefixes) > 0 {
		b.WriteByte('\n')
	}

	// Group by subject: sort triple indices by subject, ties by index.
	ts := g.Triples()
	order := make([]int, len(ts))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if sa, sb := ts[a].S, ts[b].S; sa != sb {
			if TermLess(sa, sb) {
				return -1
			}
			return 1
		}
		return a - b
	})
	for k := 0; k < len(order); {
		s := ts[order[k]].S
		fmt.Fprintf(&b, "%s ", abbrev(s))
		for first := k; k < len(order) && ts[order[k]].S == s; k++ {
			if k > first {
				b.WriteString(" ;\n    ")
			}
			tr := ts[order[k]]
			fmt.Fprintf(&b, "%s %s", abbrev(tr.P), abbrev(tr.O))
		}
		b.WriteString(" .\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}
