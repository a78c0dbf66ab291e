package rdf

import (
	"sort"
)

// Graph is an in-memory RDF graph with three hash indexes (by subject, by
// predicate, by object) so that every single-position pattern lookup is a
// map hit. Duplicate triples are stored once. Graph is not safe for
// concurrent mutation; concurrent reads are safe once loading is done.
type Graph struct {
	triples []Triple
	seen    map[Triple]int // triple -> index in triples
	bySubj  map[Term][]int
	byPred  map[Term][]int
	byObj   map[Term][]int
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{
		seen:   make(map[Triple]int),
		bySubj: make(map[Term][]int),
		byPred: make(map[Term][]int),
		byObj:  make(map[Term][]int),
	}
}

// Len returns the number of distinct triples.
func (g *Graph) Len() int { return len(g.triples) }

// Add inserts a triple; re-adding an existing triple is a no-op. It
// reports whether the triple was new.
func (g *Graph) Add(tr Triple) bool {
	if _, dup := g.seen[tr]; dup {
		return false
	}
	idx := len(g.triples)
	g.triples = append(g.triples, tr)
	g.seen[tr] = idx
	g.bySubj[tr.S] = append(g.bySubj[tr.S], idx)
	g.byPred[tr.P] = append(g.byPred[tr.P], idx)
	g.byObj[tr.O] = append(g.byObj[tr.O], idx)
	return true
}

// AddAll inserts every triple of other into g.
func (g *Graph) AddAll(other *Graph) {
	for _, tr := range other.triples {
		g.Add(tr)
	}
}

// Has reports whether the graph contains the triple.
func (g *Graph) Has(tr Triple) bool {
	_, ok := g.seen[tr]
	return ok
}

// Triples returns all triples in insertion order. The slice is shared;
// callers must not modify it.
func (g *Graph) Triples() []Triple { return g.triples }

// Wildcard returns a pattern term matching anything when passed to Match.
func Wildcard() *Term { return nil }

// Match returns all triples matching the pattern, where a nil term matches
// anything. It picks the most selective available index.
func (g *Graph) Match(s, p, o *Term) []Triple {
	candidate := g.candidateIndices(s, p, o)
	var out []Triple
	for _, i := range candidate {
		tr := g.triples[i]
		if s != nil && tr.S != *s {
			continue
		}
		if p != nil && tr.P != *p {
			continue
		}
		if o != nil && tr.O != *o {
			continue
		}
		out = append(out, tr)
	}
	return out
}

// candidateIndices chooses the smallest index posting list covering the
// bound positions, or all triples when the pattern is fully unbound.
func (g *Graph) candidateIndices(s, p, o *Term) []int {
	best := -1 // -1 means "scan all"
	var bestList []int
	consider := func(list []int, bound bool) {
		if !bound {
			return
		}
		if best < 0 || len(list) < best {
			best = len(list)
			bestList = list
		}
	}
	if s != nil {
		consider(g.bySubj[*s], true)
	}
	if p != nil {
		consider(g.byPred[*p], true)
	}
	if o != nil {
		consider(g.byObj[*o], true)
	}
	if best < 0 {
		all := make([]int, len(g.triples))
		for i := range all {
			all[i] = i
		}
		return all
	}
	return bestList
}

// Subjects returns the distinct subjects in deterministic (sorted) order.
func (g *Graph) Subjects() []Term {
	return sortedKeys(g.bySubj)
}

// Predicates returns the distinct predicates in deterministic order.
func (g *Graph) Predicates() []Term {
	return sortedKeys(g.byPred)
}

// Objects returns the distinct objects in deterministic order.
func (g *Graph) Objects() []Term {
	return sortedKeys(g.byObj)
}

// SubjectsOfType returns subjects having an rdf:type triple with the given
// class IRI, in deterministic order.
func (g *Graph) SubjectsOfType(class Term) []Term {
	typ := NewIRI(RDFType)
	var out []Term
	seen := make(map[Term]bool)
	for _, tr := range g.Match(nil, &typ, &class) {
		if !seen[tr.S] {
			seen[tr.S] = true
			out = append(out, tr.S)
		}
	}
	sortTerms(out)
	return out
}

// Classes returns all distinct rdf:type objects in deterministic order.
func (g *Graph) Classes() []Term {
	typ := NewIRI(RDFType)
	seen := make(map[Term]bool)
	var out []Term
	for _, tr := range g.Match(nil, &typ, nil) {
		if !seen[tr.O] {
			seen[tr.O] = true
			out = append(out, tr.O)
		}
	}
	sortTerms(out)
	return out
}

// PropertyValues returns the objects of (subject, predicate, ?) in
// insertion order.
func (g *Graph) PropertyValues(subject, predicate Term) []Term {
	var out []Term
	for _, i := range g.bySubj[subject] {
		tr := g.triples[i]
		if tr.P == predicate {
			out = append(out, tr.O)
		}
	}
	return out
}

// FirstValue returns the first object of (subject, predicate, ?) and
// whether one exists.
func (g *Graph) FirstValue(subject, predicate Term) (Term, bool) {
	for _, i := range g.bySubj[subject] {
		tr := g.triples[i]
		if tr.P == predicate {
			return tr.O, true
		}
	}
	return Term{}, false
}

// OutDegree returns the number of triples with the given subject.
func (g *Graph) OutDegree(t Term) int { return len(g.bySubj[t]) }

// InDegree returns the number of triples with the given object.
func (g *Graph) InDegree(t Term) int { return len(g.byObj[t]) }

// LinkStats summarizes the link structure of a graph — the "different kind
// of links among data" the paper singles out as an LOD-specific mining
// difficulty (§1).
type LinkStats struct {
	Triples        int
	Subjects       int
	Predicates     int
	Objects        int
	IRIObjectLinks int     // triples whose object is an IRI (entity-to-entity links)
	LiteralTriples int     // triples whose object is a literal
	SameAsLinks    int     // owl:sameAs triples (inter-source identity links)
	AvgOutDegree   float64 // triples per distinct subject
	MaxOutDegree   int
	AvgInDegree    float64 // IRI-object links per distinct IRI object
}

// Stats computes LinkStats over the graph.
func (g *Graph) Stats() LinkStats {
	st := LinkStats{
		Triples:    len(g.triples),
		Subjects:   len(g.bySubj),
		Predicates: len(g.byPred),
		Objects:    len(g.byObj),
	}
	sameAs := NewIRI(OWLSameAs)
	inDeg := make(map[Term]int)
	for _, tr := range g.triples {
		switch {
		case tr.O.IsLiteral():
			st.LiteralTriples++
		case tr.O.IsIRI():
			st.IRIObjectLinks++
			inDeg[tr.O]++
		}
		if tr.P == sameAs {
			st.SameAsLinks++
		}
	}
	if st.Subjects > 0 {
		st.AvgOutDegree = float64(st.Triples) / float64(st.Subjects)
	}
	for s := range g.bySubj {
		if d := len(g.bySubj[s]); d > st.MaxOutDegree {
			st.MaxOutDegree = d
		}
	}
	if len(inDeg) > 0 {
		total := 0
		for _, d := range inDeg {
			total += d
		}
		st.AvgInDegree = float64(total) / float64(len(inDeg))
	}
	return st
}

func sortedKeys(m map[Term][]int) []Term {
	out := make([]Term, 0, len(m))
	for t := range m {
		out = append(out, t)
	}
	sortTerms(out)
	return out
}

func sortTerms(ts []Term) {
	sort.Slice(ts, func(a, b int) bool { return TermLess(ts[a], ts[b]) })
}
