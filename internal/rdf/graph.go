package rdf

import "io"

// Graph is an in-memory RDF graph: its distinct triples in insertion
// order. Duplicate triples are stored once. Graph is not safe for
// concurrent mutation; concurrent reads are safe once loading is done.
type Graph struct {
	triples []Triple
	seen    map[Triple]struct{}
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{seen: make(map[Triple]struct{})} }

// readGraph collects the triples a streaming decoder reads from r into a
// new graph.
func readGraph(r io.Reader, stream func(io.Reader, TripleFunc) error) (*Graph, error) {
	g := NewGraph()
	if err := stream(r, func(tr Triple) error { g.Add(tr); return nil }); err != nil {
		return nil, err
	}
	return g, nil
}

// Len returns the number of distinct triples.
func (g *Graph) Len() int { return len(g.triples) }

// Add inserts a triple; re-adding an existing triple is a no-op. It
// reports whether the triple was new.
func (g *Graph) Add(tr Triple) bool {
	if _, dup := g.seen[tr]; dup {
		return false
	}
	g.triples = append(g.triples, tr)
	g.seen[tr] = struct{}{}
	return true
}

// Triples returns all triples in insertion order. The slice is shared;
// callers must not modify it.
func (g *Graph) Triples() []Triple { return g.triples }

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
	outDeg := make(map[Term]int)
	preds := make(map[Term]struct{})
	objs := make(map[Term]struct{})
	inDeg := make(map[Term]int)
	st := LinkStats{Triples: len(g.triples)}
	sameAs := NewIRI(OWLSameAs)
	for _, tr := range g.triples {
		outDeg[tr.S]++
		preds[tr.P] = struct{}{}
		objs[tr.O] = struct{}{}
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
	st.Subjects, st.Predicates, st.Objects = len(outDeg), len(preds), len(objs)
	if st.Subjects > 0 {
		st.AvgOutDegree = float64(st.Triples) / float64(st.Subjects)
	}
	for _, d := range outDeg {
		st.MaxOutDegree = max(st.MaxOutDegree, d)
	}
	if len(inDeg) > 0 {
		st.AvgInDegree = float64(st.IRIObjectLinks) / float64(len(inDeg))
	}
	return st
}
