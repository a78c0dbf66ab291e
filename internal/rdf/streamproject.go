package rdf

import (
	"io"
	"sort"

	"openbi/internal/table"
)

// Projector is the one entity→table projection: feed it triples one at
// a time (its Add is a TripleFunc) and call Table once the stream ends.
// It gathers per (subject, predicate) the first distinct value and the
// distinct-value count, in stream order. StreamProject feeds it a
// decoder's triples and Project a resident graph's, so a document and the
// graph it loads to project to the same table.
//
// Subjects, predicates and rdf:type classes are held as ids of a term
// Dict: subject states live in a slice indexed through the subject's id,
// and predicates and classes compare as integers. Objects stay Terms,
// compared only within one subject's predicate entry, so interning them
// would cost a hash each for nothing. Memory scales with the distinct
// (subject, predicate, object) combinations — the content of the
// projected table — plus the dictionary's distinct terms, not with the
// triple count: duplicate triples, repeated links and the graph's
// reverse indexes cost nothing. That is what lets the ingestion pipeline
// project graphs whose serialized form exceeds memory.
type Projector struct {
	opts     ProjectOptions
	dict     *Dict
	typeID   uint32         // the id of rdf:type
	subIdx   []int32        // term id -> 1 + index into subs; 0: not a subject
	subs     []subjState    // subjects in first-seen order
	classCnt map[uint32]int // class id -> subjects typed with it

	// class is the entity class the last Table call resolved (explicit
	// Class, or the LargestClass winner); hasClass is false when every
	// subject was projected.
	class    Term
	hasClass bool
}

// subjState is the per-subject evidence of one streaming projection.
// Predicates and objects are small linear-scanned slices rather than
// nested maps: subjects in real LOD carry a handful of predicates with
// one to a few values each, and slices keep the projector's working set
// several times below a resident Graph (maps cost hundreds of bytes per
// entry; hub subjects degrade to linear scans, never break).
type subjState struct {
	id    uint32
	types []uint32
	preds []spEntry
}

// spEntry is the per-(subject, predicate) evidence: the first distinct
// object (PropertyValues order == first-occurrence order of distinct
// triples) and the distinct objects seen.
type spEntry struct {
	pred uint32
	objs []Term // distinct objects in first-seen order; objs[0] is the first value
}

// NewProjector validates opts (same rules and defaults as Project) and
// returns an empty streaming projector over a dictionary of its own.
func NewProjector(opts ProjectOptions) (*Projector, error) {
	return NewProjectorOn(NewDict(), opts)
}

// NewProjectorOn is NewProjector over the dictionary d, which other
// stream consumers may share: a caller that interns each triple's subject
// and predicate once can hand the ids to AddIDs and to those consumers
// alike.
func NewProjectorOn(d *Dict, opts ProjectOptions) (*Projector, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	return &Projector{
		opts:     opts,
		dict:     d,
		typeID:   d.ID(NewIRI(RDFType)),
		classCnt: make(map[uint32]int),
	}, nil
}

// Add observes one triple: it interns the subject and predicate and runs
// AddIDs. It never fails; the TripleFunc signature lets it plug straight
// into Stream.
func (p *Projector) Add(tr Triple) error {
	p.AddIDs(p.dict.ID(tr.S), p.dict.ID(tr.P), tr.O)
	return nil
}

// AddIDs observes one triple whose subject s and predicate pred are ids
// of the projector's dictionary; the object stays a term.
func (p *Projector) AddIDs(s, pred uint32, o Term) {
	if int(s) >= len(p.subIdx) {
		p.subIdx = append(p.subIdx, make([]int32, int(s)+1-len(p.subIdx))...)
	}
	if p.subIdx[s] == 0 {
		p.subs = append(p.subs, subjState{id: s})
		p.subIdx[s] = int32(len(p.subs))
	}
	st := &p.subs[p.subIdx[s]-1]
	if pred == p.typeID {
		c := p.dict.ID(o)
		for _, t := range st.types {
			if t == c {
				return
			}
		}
		st.types = append(st.types, c)
		p.classCnt[c]++
		return
	}
	for i := range st.preds {
		if st.preds[i].pred != pred {
			continue
		}
		for _, x := range st.preds[i].objs {
			if x == o {
				return // duplicate triple
			}
		}
		st.preds[i].objs = append(st.preds[i].objs, o)
		return
	}
	st.preds = append(st.preds, spEntry{pred: pred, objs: []Term{o}})
}

// Subjects returns the number of distinct subjects seen so far (a cheap
// progress indicator; the projector does not count raw triples).
func (p *Projector) Subjects() int { return len(p.subs) }

// Class returns the entity class the last Table call projected, and
// whether one was used at all (false = every subject was projected).
func (p *Projector) Class() (Term, bool) { return p.class, p.hasClass }

// Table assembles the projected table from everything Added so far,
// applying the class restriction: the explicit Class, else the
// LargestClass, else all subjects.
func (p *Projector) Table() (*table.Table, error) {
	opts := p.opts
	hasClass := opts.Class.IsIRI() && opts.Class.Value != ""
	var classID uint32
	known := false // classID is the class's id: an explicit Class may never occur
	if hasClass {
		classID, known = p.dict.Lookup(opts.Class)
	} else if opts.LargestClass {
		classes := make([]uint32, 0, len(p.classCnt))
		for c := range p.classCnt {
			classes = append(classes, c)
		}
		p.sortIDs(classes)
		bestN := 0 // the first strict maximum in sorted class order wins
		for _, c := range classes {
			if n := p.classCnt[c]; n > bestN {
				classID, bestN = c, n
			}
		}
		hasClass, known = bestN > 0, bestN > 0
		if hasClass {
			opts.Class = p.dict.Term(classID)
		}
	}
	p.class, p.hasClass = opts.Class, hasClass

	var states []*subjState
	for i := range p.subs {
		if hasClass && !(known && p.subs[i].hasType(classID)) {
			continue
		}
		states = append(states, &p.subs[i])
	}
	if len(states) == 0 {
		return nil, errNoSubjects
	}
	sort.Slice(states, func(a, b int) bool {
		return TermLess(p.dict.Term(states[a].id), p.dict.Term(states[b].id))
	})
	subjects := make([]Term, len(states))
	for i, st := range states {
		subjects[i] = p.dict.Term(st.id)
	}

	// The projected subjects' predicates in term order. Predicates that
	// only other subjects carry would add no column, so they are skipped.
	// predIdx first marks the predicates seen, then maps each to its
	// gather.
	predIdx := make([]int32, p.dict.Len())
	var preds []uint32
	for _, st := range states {
		for _, sp := range st.preds {
			if predIdx[sp.pred] == 0 {
				preds = append(preds, sp.pred)
				predIdx[sp.pred] = 1
			}
		}
	}
	p.sortIDs(preds)
	gathers := make([]predGather, len(preds))
	for gi, pr := range preds {
		predIdx[pr] = int32(gi)
		gathers[gi] = predGather{
			pred:      p.dict.Term(pr),
			firstVals: make([]Term, len(subjects)),
			present:   make([]bool, len(subjects)),
			counts:    make([]int, len(subjects)),
		}
	}
	for i, st := range states {
		for _, sp := range st.preds {
			pg := &gathers[predIdx[sp.pred]]
			pg.counts[i] = len(sp.objs)
			if len(sp.objs) > 1 {
				pg.multi = true
			}
			pg.present[i] = true
			pg.firstVals[i] = sp.objs[0]
			pg.observed++
			if isNumericTerm(sp.objs[0]) {
				pg.numeric++
			}
		}
	}
	return assembleProjection(subjects, gathers, opts)
}

// sortIDs sorts term ids into the canonical order of their terms.
func (p *Projector) sortIDs(ids []uint32) {
	sort.Slice(ids, func(a, b int) bool { return TermLess(p.dict.Term(ids[a]), p.dict.Term(ids[b])) })
}

func (st *subjState) hasType(class uint32) bool {
	for _, t := range st.types {
		if t == class {
			return true
		}
	}
	return false
}

// StreamProject decodes RDF from r (format as in Stream) straight into a
// projected table without materializing the graph. The output is
// byte-identical to Project over ReadNTriples/ReadTurtle of the same
// document; peak memory is bounded by the projected content plus one
// statement, not the triple count.
func StreamProject(r io.Reader, format string, opts ProjectOptions) (*table.Table, error) {
	pr, err := NewProjector(opts)
	if err != nil {
		return nil, err
	}
	if err := Stream(r, format, pr.Add); err != nil {
		return nil, err
	}
	return pr.Table()
}
