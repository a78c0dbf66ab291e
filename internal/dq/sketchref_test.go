package dq

import (
	"sort"

	"openbi/internal/rdf"
	"openbi/internal/stats"
)

// profileReference is the Term-keyed profile LODSketch computed before it
// was rebuilt on dictionary ids: it keys the distinct-triple set on
// rdf.Triple values and hashes terms in every per-subject and
// per-(class, predicate) map. The sketch tests and FuzzLODSketch hold the
// sketch against it, so the id-based Profile is checked by an independent
// aggregation rather than by MeasureLOD, which is the sketch itself.
// raw is the whole triple stream in order, duplicates included; a triple's
// position is its first occurrence in raw.
func profileReference(raw []rdf.Triple) LODProfile {
	seen := make(map[rdf.Triple]uint64, len(raw))
	for pos, tr := range raw {
		if _, dup := seen[tr]; !dup {
			seen[tr] = uint64(pos)
		}
	}
	p := LODProfile{Triples: len(seen)}

	typePred := rdf.NewIRI(rdf.RDFType)
	labelPred := rdf.NewIRI(rdf.RDFSLabel)
	sameAs := rdf.NewIRI(rdf.OWLSameAs)

	// Pass 1: subjects, and each subject's first rdf:type (earliest
	// position; ties break on term order).
	type subjAgg struct {
		typ     rdf.Term
		typeSeq uint64
		hasType bool
		labeled bool
	}
	subjs := make(map[rdf.Term]*subjAgg)
	for tr, pos := range seen {
		sa := subjs[tr.S]
		if sa == nil {
			sa = &subjAgg{}
			subjs[tr.S] = sa
		}
		if tr.P == typePred {
			if !sa.hasType || pos < sa.typeSeq || (pos == sa.typeSeq && rdf.TermLess(tr.O, sa.typ)) {
				sa.typ, sa.typeSeq, sa.hasType = tr.O, pos, true
			}
		}
	}
	p.Entities = len(subjs)
	if p.Entities == 0 {
		return p
	}

	// Class membership; "" is the classless bucket.
	classCounts := map[string]int{}
	for _, sa := range subjs {
		cls := ""
		if sa.hasType {
			cls = sa.typ.Value
		}
		classCounts[cls]++
	}
	classes := make([]string, 0, len(classCounts))
	for c := range classCounts {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	counts := make([]int, 0, len(classes))
	for _, c := range classes {
		counts = append(counts, classCounts[c])
	}
	p.ClassEntropy = stats.NormalizedEntropy(counts)

	// Pass 2: per (class, predicate) coverage, labels, links.
	type cp struct {
		class string
		pred  rdf.Term
	}
	carriers := map[cp]map[rdf.Term]bool{}
	dangling, iriLinks, sameAsCount, labeled := 0, 0, 0, 0
	for tr := range seen {
		if tr.P == typePred {
			continue
		}
		if tr.P == labelPred {
			if sa := subjs[tr.S]; !sa.labeled {
				sa.labeled = true
				labeled++
			}
			continue
		}
		if tr.P == sameAs {
			sameAsCount++
		}
		cls := ""
		if sa := subjs[tr.S]; sa.hasType {
			cls = sa.typ.Value
		}
		key := cp{cls, tr.P}
		set := carriers[key]
		if set == nil {
			set = map[rdf.Term]bool{}
			carriers[key] = set
		}
		set[tr.S] = true
		if tr.O.IsIRI() {
			iriLinks++
			if _, isSubject := subjs[tr.O]; !isSubject {
				dangling++
			}
		}
	}

	if len(carriers) > 0 {
		keys := make([]cp, 0, len(carriers))
		for key := range carriers {
			keys = append(keys, key)
		}
		sort.Slice(keys, func(a, b int) bool {
			if keys[a].class != keys[b].class {
				return keys[a].class < keys[b].class
			}
			return rdf.TermLess(keys[a].pred, keys[b].pred)
		})
		sum := 0.0
		predsPerClass := map[string]int{}
		for _, key := range keys {
			if total := classCounts[key.class]; total > 0 {
				sum += float64(len(carriers[key])) / float64(total)
			}
			predsPerClass[key.class]++
		}
		p.PropertyCompleteness = sum / float64(len(carriers))
		tot := 0
		for _, n := range predsPerClass {
			tot += n
		}
		p.PredicatesPerClass = float64(tot) / float64(len(predsPerClass))
	}
	if iriLinks > 0 {
		p.DanglingLinkRatio = float64(dangling) / float64(iriLinks)
	}
	p.SameAsRatio = float64(sameAsCount) / float64(p.Entities)
	p.LabelCoverage = float64(labeled) / float64(p.Entities)
	return p
}
