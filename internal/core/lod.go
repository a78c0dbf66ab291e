package core

import (
	"io"

	"openbi/internal/dq"
	"openbi/internal/rdf"
	"openbi/internal/table"
)

// LODIngest is the result of one streaming RDF ingestion: the projected
// common-representation table and the graph-level quality profile, both
// computed from a single decoder pass over the document.
type LODIngest struct {
	// Table is the entity→table projection (identical, byte for byte, to
	// rdf.Project over the loaded graph).
	Table *table.Table
	// Profile is the graph-level quality profile (identical to
	// dq.MeasureLOD over the loaded graph).
	Profile dq.LODProfile
	// Class is the IRI of the projected entity class — the explicit
	// opts.Class or the LargestClass winner; "" when every subject was
	// projected (Table.Name is "lod" in that case).
	Class string
	// Triples counts the raw triples streamed, duplicates included.
	Triples int
}

// IngestLOD streams an RDF document (format "nt" or "ttl", as in
// rdf.Stream) exactly once, feeding the data-quality sketch and the table
// projector from the same decoder pass — the graph is never resident. Both consumers are built over one rdf.Dict: each triple's
// terms are interned once and the sketch and projector receive the same
// dense ids, so no term is hashed twice. The decoder itself runs at
// constant memory (bounded by the longest statement); the dictionary,
// sketch and projector retain only distinct content, so peak memory
// scales with the graph's distinct terms, triples and projected entities,
// not with the raw stream: duplicate triples, repeated links and
// multi-portal re-exports cost nothing, and the working set stays well
// below a resident rdf.Graph (see BenchmarkIngestLOD). Zero-value opts
// project every subject; set opts.LargestClass or opts.Class to restrict.
// `openbi ingest` and `openbi profile` run on it; IngestFile, which needs
// only the table, streams through rdf.StreamProject with LargestClass.
func IngestLOD(r io.Reader, format string, opts rdf.ProjectOptions) (*LODIngest, error) {
	dict := rdf.NewDict()
	sk := dq.NewLODSketchOn(dict)
	proj, err := rdf.NewProjectorOn(dict, opts)
	if err != nil {
		return nil, err
	}
	n := 0
	err = rdf.Stream(r, format, func(tr rdf.Triple) error {
		n++
		s, p := dict.ID(tr.S), dict.ID(tr.P)
		sk.AddIDs(s, p, dict.ID(tr.O))
		proj.AddIDs(s, p, tr.O)
		return nil
	})
	if err != nil {
		return nil, err
	}
	t, err := proj.Table()
	if err != nil {
		return nil, err
	}
	ing := &LODIngest{Table: t, Profile: sk.Profile(), Triples: n}
	if cls, ok := proj.Class(); ok {
		ing.Class = cls.Value
	}
	return ing, nil
}

// IngestLOD streams one RDF document through the engine-independent
// pipeline; see the package function.
func (e *Engine) IngestLOD(r io.Reader, format string, opts rdf.ProjectOptions) (*LODIngest, error) {
	return IngestLOD(r, format, opts)
}
