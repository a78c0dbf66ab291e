package dq_test

import (
	"strings"
	"testing"

	"openbi/internal/core"
	"openbi/internal/dq"
	"openbi/internal/rdf"
)

// FuzzLODSketch holds both ways a stream reaches the sketch against the
// reference profile over the same triples: Add on a sketch of its own
// (also cut into two partition sketches merged out of order), and
// core.IngestLOD, whose sketch shares its term dictionary with the
// projector. Documents the decoder rejects are FuzzStreamNTriples' concern.
func FuzzLODSketch(f *testing.F) {
	f.Fuzz(func(t *testing.T, doc string) {
		var raw []rdf.Triple
		if err := rdf.Stream(strings.NewReader(doc), "nt", func(tr rdf.Triple) error {
			raw = append(raw, tr)
			return nil
		}); err != nil {
			return
		}
		want := dq.ProfileReference(raw)

		sk := dq.NewLODSketch()
		for _, tr := range raw {
			sk.Add(tr)
		}
		if got := sk.Profile(); got != want {
			t.Fatalf("Add profile %+v != reference %+v\ndoc: %q", got, want, doc)
		}

		cut := len(raw) / 2
		head, tail := dq.NewLODSketch(), dq.NewLODSketchAt(uint64(cut))
		for _, tr := range raw[:cut] {
			head.Add(tr)
		}
		for _, tr := range raw[cut:] {
			tail.Add(tr)
		}
		tail.Merge(head)
		if got := tail.Profile(); got != want {
			t.Fatalf("merged profile %+v != reference %+v\ndoc: %q", got, want, doc)
		}

		ing, err := core.IngestLOD(strings.NewReader(doc), "nt", rdf.ProjectOptions{})
		if err != nil {
			// Only the projection may refuse a decodable document (nothing
			// to project); it must refuse it exactly as StreamProject does.
			_, perr := rdf.StreamProject(strings.NewReader(doc), "nt", rdf.ProjectOptions{})
			if perr == nil || perr.Error() != err.Error() {
				t.Fatalf("IngestLOD failed with %v, StreamProject with %v\ndoc: %q", err, perr, doc)
			}
			return
		}
		if ing.Profile != want {
			t.Fatalf("IngestLOD profile %+v != reference %+v\ndoc: %q", ing.Profile, want, doc)
		}
		if ing.Triples != len(raw) {
			t.Fatalf("IngestLOD streamed %d triples, the decoder %d", ing.Triples, len(raw))
		}
	})
}
