package rdf

import (
	"maps"
	"slices"

	"openbi/internal/table"
)

// projectReference is the graph-walking projection Project ran before it
// was rebuilt on the Projector: it groups the graph's triples by subject
// and class, then gathers each projected subject's values predicate by
// predicate. The projection tests and FuzzStreamProject hold the Projector
// against it, so the Projector is checked by an independent gather loop
// rather than by itself. Both end in the shared assembleProjection.
func projectReference(g *Graph, opts ProjectOptions) (*table.Table, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	typeIRI := NewIRI(RDFType)
	values := map[Term]map[Term][]Term{} // subject -> predicate -> objects, in insertion order
	ofType := map[Term]map[Term]bool{}   // class -> its subjects
	preds := map[Term]bool{}
	for _, tr := range g.Triples() {
		if values[tr.S] == nil {
			values[tr.S] = map[Term][]Term{}
		}
		values[tr.S][tr.P] = append(values[tr.S][tr.P], tr.O)
		preds[tr.P] = true
		if tr.P == typeIRI {
			if ofType[tr.O] == nil {
				ofType[tr.O] = map[Term]bool{}
			}
			ofType[tr.O][tr.S] = true
		}
	}

	hasClass := opts.Class.IsIRI() && opts.Class.Value != ""
	if !hasClass && opts.LargestClass {
		bestN := -1 // the first strict maximum in sorted class order wins
		for _, c := range sortedTerms(ofType) {
			if n := len(ofType[c]); n > bestN {
				opts.Class, bestN = c, n
			}
		}
		hasClass = bestN >= 0
	}
	subjects := sortedTerms(values)
	if hasClass {
		subjects = sortedTerms(ofType[opts.Class])
	}
	if len(subjects) == 0 {
		return nil, errNoSubjects
	}

	// Predicates in sorted order, skipping rdf:type (the class selector,
	// not an attribute).
	var gathers []predGather
	for _, p := range sortedTerms(preds) {
		if p == typeIRI {
			continue
		}
		pg := predGather{
			pred:      p,
			firstVals: make([]Term, len(subjects)),
			present:   make([]bool, len(subjects)),
			counts:    make([]int, len(subjects)),
		}
		for i, s := range subjects {
			vals := values[s][p]
			pg.counts[i] = len(vals)
			if len(vals) == 0 {
				continue
			}
			if len(vals) > 1 {
				pg.multi = true
			}
			pg.present[i] = true
			pg.firstVals[i] = vals[0]
			pg.observed++
			if isNumericTerm(vals[0]) {
				pg.numeric++
			}
		}
		gathers = append(gathers, pg)
	}
	return assembleProjection(subjects, gathers, opts)
}

// sortedTerms returns the keys of m in term order.
func sortedTerms[V any](m map[Term]V) []Term {
	return slices.SortedFunc(maps.Keys(m), func(a, b Term) int {
		switch {
		case TermLess(a, b):
			return -1
		case TermLess(b, a):
			return 1
		}
		return 0
	})
}
