package dq

import (
	"slices"
	"sort"

	"openbi/internal/rdf"
	"openbi/internal/stats"
)

// LODSketch computes an LODProfile incrementally from a triple stream,
// without a resident graph: no subject/predicate/object indexes, no
// triple slice — a term dictionary and the distinct-triple set, keyed on
// each triple's three term ids and tagged with its first-occurrence
// position. Feed it triples one at a time (Add is a TripleFunc, so it
// plugs straight into rdf.Stream) and call Profile at the end; the result
// is identical to MeasureLOD over the graph the same stream would load
// (MeasureLOD itself is implemented on the sketch). A sketch built with
// NewLODSketchOn shares its dictionary with other stream consumers, which
// then intern each term once for all of them and pass ids to AddIDs.
//
// Sketches are mergeable, mirroring kb.Merge's discipline for KB shards:
// profile the partitions of a huge graph independently — each partition
// sketch created with NewLODSketchAt at its raw-stream offset — then
// Merge them in any order. The merged profile is deterministic under
// permutation and equal to a single pass over the whole stream, because
// every order-sensitive quantity (a subject's first rdf:type) is resolved
// by the global first-occurrence position, not by merge order.
type LODSketch struct {
	dict *rdf.Dict
	seen map[[3]uint32]uint64 // distinct (s, p, o) ids -> first-occurrence position
	seq  uint64               // position of the next raw triple
}

// NewLODSketch returns an empty sketch positioned at the start of the
// stream.
func NewLODSketch() *LODSketch { return NewLODSketchAt(0) }

// NewLODSketchAt returns an empty sketch for a stream partition beginning
// at the given raw-triple offset (the number of triples, duplicates
// included, that precede the partition). Offsets make first-occurrence
// positions globally comparable, so merged partition sketches resolve
// order-sensitive measures exactly as one monolithic pass would.
func NewLODSketchAt(base uint64) *LODSketch {
	return &LODSketch{dict: rdf.NewDict(), seen: make(map[[3]uint32]uint64), seq: base}
}

// NewLODSketchOn returns an empty sketch, positioned at the start of the
// stream, over the dictionary d, which other stream consumers may share.
func NewLODSketchOn(d *rdf.Dict) *LODSketch {
	return &LODSketch{dict: d, seen: make(map[[3]uint32]uint64)}
}

// Add observes one raw triple: it interns the triple's terms and runs
// AddIDs. It never fails; the error return matches rdf.TripleFunc.
func (s *LODSketch) Add(tr rdf.Triple) error {
	s.AddIDs(s.dict.ID(tr.S), s.dict.ID(tr.P), s.dict.ID(tr.O))
	return nil
}

// AddIDs observes one raw triple given as ids of the sketch's dictionary.
// Duplicates advance the stream position but are otherwise ignored (RDF
// graphs are triple sets).
func (s *LODSketch) AddIDs(sub, pred, obj uint32) {
	k := [3]uint32{sub, pred, obj}
	if _, dup := s.seen[k]; !dup {
		s.seen[k] = s.seq
	}
	s.seq++
}

// Len returns the number of distinct triples observed.
func (s *LODSketch) Len() int { return len(s.seen) }

// Observed returns the stream position after the last Add — for a sketch
// started at offset b that saw n raw triples, b+n. Use it as the next
// partition's NewLODSketchAt offset when slicing a stream sequentially.
func (s *LODSketch) Observed() uint64 { return s.seq }

// Merge folds other partition sketches into s, in any order: the distinct
// sets union and each triple keeps its smallest (earliest) position.
// Overlapping partitions are harmless — a triple seen by several sketches
// still counts once. A partition over another dictionary has its ids
// remapped through its terms into s's dictionary.
func (s *LODSketch) Merge(others ...*LODSketch) {
	for _, o := range others {
		var remap []uint32
		if o.dict != s.dict {
			remap = make([]uint32, o.dict.Len())
			for id := range remap {
				remap[id] = s.dict.ID(o.dict.Term(uint32(id)))
			}
		}
		for k, pos := range o.seen {
			if remap != nil {
				k = [3]uint32{remap[k[0]], remap[k[1]], remap[k[2]]}
			}
			if cur, ok := s.seen[k]; !ok || pos < cur {
				s.seen[k] = pos
			}
		}
		if o.seq > s.seq {
			s.seq = o.seq
		}
	}
}

// noTerm is an id no dictionary hands out in practice (it would take 2^32
// distinct terms): the id of a vocabulary term the stream never used.
const noTerm = ^uint32(0)

// Profile computes the LODProfile of everything observed so far. Ids turn
// back into terms only to order classes and predicates and to read a
// class's Value and an object's kind; every float accumulation runs in
// that sorted order, so the result is bit-for-bit reproducible run to run
// and invariant under partitioning and merge order.
func (s *LODSketch) Profile() LODProfile {
	p := LODProfile{Triples: len(s.seen)}
	d := s.dict
	vocab := func(iri string) uint32 {
		if id, ok := d.Lookup(rdf.NewIRI(iri)); ok {
			return id
		}
		return noTerm
	}
	typePred, labelPred, sameAs := vocab(rdf.RDFType), vocab(rdf.RDFSLabel), vocab(rdf.OWLSameAs)

	// Pass 1: subjects, and each subject's first rdf:type (earliest
	// position; ties — possible only with misused partition offsets —
	// break on term order so the result stays deterministic).
	type subjAgg struct {
		typeSeq uint64
		typ     uint32 // the first rdf:type object, if hasType
		class   int32  // index into the sorted classes
		hasType bool
		labeled bool
	}
	subjIdx := make([]int32, d.Len()) // term id -> 1 + index into subjs; 0: not a subject
	var subjs []subjAgg
	for k, pos := range s.seen {
		si := subjIdx[k[0]]
		if si == 0 {
			subjs = append(subjs, subjAgg{})
			si = int32(len(subjs))
			subjIdx[k[0]] = si
		}
		if k[1] == typePred {
			sa := &subjs[si-1]
			if !sa.hasType || pos < sa.typeSeq || (pos == sa.typeSeq && rdf.TermLess(d.Term(k[2]), d.Term(sa.typ))) {
				sa.typ, sa.typeSeq, sa.hasType = k[2], pos, true
			}
		}
	}
	p.Entities = len(subjs)
	if p.Entities == 0 {
		return p
	}

	// Class membership by the class term's Value; "" is the classless
	// bucket.
	classOf := func(sa *subjAgg) string {
		if sa.hasType {
			return d.Term(sa.typ).Value
		}
		return ""
	}
	classCounts := map[string]int{}
	for i := range subjs {
		classCounts[classOf(&subjs[i])]++
	}
	classes := make([]string, 0, len(classCounts))
	for c := range classCounts {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	rank := make(map[string]int32, len(classes))
	counts := make([]int, len(classes))
	for i, c := range classes {
		rank[c], counts[i] = int32(i), classCounts[c]
	}
	p.ClassEntropy = stats.NormalizedEntropy(counts)
	for i := range subjs {
		subjs[i].class = rank[classOf(&subjs[i])]
	}

	// Pass 2: labels, links, and the (predicate, subject) pair of every
	// attribute triple. rdf:type and rdfs:label are meta, not attributes.
	pairs := make([]uint64, 0, len(s.seen))
	dangling, iriLinks, sameAsCount, labeled := 0, 0, 0, 0
	for k := range s.seen {
		if k[1] == typePred {
			continue
		}
		si := subjIdx[k[0]] - 1
		if k[1] == labelPred {
			if sa := &subjs[si]; !sa.labeled {
				sa.labeled = true
				labeled++
			}
			continue
		}
		if k[1] == sameAs {
			sameAsCount++
		}
		pairs = append(pairs, uint64(k[1])<<32|uint64(si))
		if d.Term(k[2]).IsIRI() {
			iriLinks++
			if subjIdx[k[2]] == 0 {
				dangling++
			}
		}
	}

	// Per (class, predicate): how many distinct subjects of the class
	// carry the predicate. Sorting the pairs groups them by predicate and
	// puts a subject's repeats side by side.
	slices.Sort(pairs)
	type carrier struct {
		class int32
		pred  uint32
		n     int
	}
	var carriers []carrier
	perClass := make([]int, len(classes))
	for i := 0; i < len(pairs); {
		pred := uint32(pairs[i] >> 32)
		j := i
		for ; j < len(pairs) && uint32(pairs[j]>>32) == pred; j++ {
			if j == i || pairs[j] != pairs[j-1] {
				perClass[subjs[uint32(pairs[j])].class]++
			}
		}
		for c, n := range perClass {
			if n > 0 {
				carriers = append(carriers, carrier{class: int32(c), pred: pred, n: n})
				perClass[c] = 0
			}
		}
		i = j
	}

	if len(carriers) > 0 {
		sort.Slice(carriers, func(a, b int) bool {
			if carriers[a].class != carriers[b].class {
				return carriers[a].class < carriers[b].class
			}
			return rdf.TermLess(d.Term(carriers[a].pred), d.Term(carriers[b].pred))
		})
		sum := 0.0
		classesCarrying := 0
		for i, c := range carriers {
			sum += float64(c.n) / float64(counts[c.class])
			if i == 0 || carriers[i-1].class != c.class {
				classesCarrying++
			}
		}
		p.PropertyCompleteness = sum / float64(len(carriers))
		p.PredicatesPerClass = float64(len(carriers)) / float64(classesCarrying)
	}
	if iriLinks > 0 {
		p.DanglingLinkRatio = float64(dangling) / float64(iriLinks)
	}
	p.SameAsRatio = float64(sameAsCount) / float64(p.Entities)
	p.LabelCoverage = float64(labeled) / float64(p.Entities)
	return p
}
