package rdf

// Dict is a term dictionary: it assigns each distinct Term a dense uint32
// id in first-seen order and maps ids back to terms — the dictionary
// encoding of HDT (Fernández et al., J. Web Semantics 2013) and RDF-3X
// (Neumann and Weikum, VLDB 2008). Stream consumers that key their state
// on ids hash each term once, when it is interned, and afterwards compare
// and index by integer; consumers built over one Dict share that hash.
//
// Ids are meaningful only within their Dict. A Dict is not safe for
// concurrent mutation.
type Dict struct {
	ids   map[Term]uint32
	terms []Term
}

// NewDict returns an empty dictionary.
func NewDict() *Dict { return &Dict{ids: make(map[Term]uint32)} }

// ID interns t and returns its id: the existing one if t was seen before,
// else the next unused id (Len before the call).
func (d *Dict) ID(t Term) uint32 {
	if id, ok := d.ids[t]; ok {
		return id
	}
	id := uint32(len(d.terms))
	d.ids[t] = id
	d.terms = append(d.terms, t)
	return id
}

// Lookup returns t's id without interning it; ok is false if t was never
// interned.
func (d *Dict) Lookup(t Term) (id uint32, ok bool) {
	id, ok = d.ids[t]
	return id, ok
}

// Term returns the term with the given id. It panics if id was not
// returned by this dictionary.
func (d *Dict) Term(id uint32) Term { return d.terms[id] }

// Len returns the number of interned terms; ids run from 0 to Len()-1.
func (d *Dict) Len() int { return len(d.terms) }
