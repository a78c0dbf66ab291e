package rdf

import "openbi/internal/table"

// projectReference is the graph-walking projection Project ran before it
// was rebuilt on the Projector: it asks the graph's indexes for the
// projected subjects and, per predicate, for each subject's values. The
// projection tests and FuzzStreamProject hold the Projector against it,
// so the Projector is checked by an independent gather loop rather than
// by itself. Both end in the shared assembleProjection.
func projectReference(g *Graph, opts ProjectOptions) (*table.Table, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	hasClass := opts.Class.IsIRI() && opts.Class.Value != ""
	if !hasClass && opts.LargestClass {
		bestN := -1 // the first strict maximum in sorted class order wins
		for _, c := range g.Classes() {
			if n := len(g.SubjectsOfType(c)); n > bestN {
				opts.Class, bestN = c, n
			}
		}
		hasClass = bestN >= 0
	}
	subjects := g.Subjects()
	if hasClass {
		subjects = g.SubjectsOfType(opts.Class)
	}
	if len(subjects) == 0 {
		return nil, errNoSubjects
	}

	// Predicates in sorted order, skipping rdf:type (the class selector,
	// not an attribute).
	typeIRI := NewIRI(RDFType)
	var gathers []predGather
	for _, p := range g.Predicates() {
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
			vals := g.PropertyValues(s, p)
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
