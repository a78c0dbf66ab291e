package dq

import (
	"math/rand"
	"testing"

	"openbi/internal/rdf"
	"openbi/internal/synth"
)

// sketchFixtures returns graphs spanning the profile's edge cases:
// synthetic LOD (clean and dirty), multi-typed subjects, classless
// subjects, dangling links and sameAs mirrors.
func sketchFixtures(t *testing.T) map[string]*rdf.Graph {
	t.Helper()
	out := map[string]*rdf.Graph{}
	for name, spec := range map[string]synth.LODSpec{
		"municipal-clean": {Entities: 120, Seed: 3},
		"municipal-dirty": {Entities: 120, Seed: 3, Dirtiness: 0.4},
	} {
		g, err := synth.MunicipalBudgetLOD(spec)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = g
	}
	out["fixture"] = buildLODFixture()

	// A subject whose two rdf:type triples make first-type order matter.
	g := rdf.NewGraph()
	typ := rdf.NewIRI(rdf.RDFType)
	s := rdf.NewIRI("http://e/multi")
	g.Add(rdf.Triple{S: s, P: typ, O: rdf.NewIRI("http://d/A")})
	g.Add(rdf.Triple{S: s, P: typ, O: rdf.NewIRI("http://d/B")})
	g.Add(rdf.Triple{S: s, P: rdf.NewIRI("http://d/p"), O: rdf.NewInteger(1)})
	g.Add(rdf.Triple{S: rdf.NewIRI("http://e/classless"), P: rdf.NewIRI("http://d/p"), O: rdf.NewInteger(2)})
	out["multi-type"] = g

	// An IRI class and a literal class with the same lexical form: the
	// profile groups classes by Value, so both subjects share one class.
	g = rdf.NewGraph()
	g.Add(rdf.Triple{S: rdf.NewIRI("http://e/a"), P: typ, O: rdf.NewIRI("http://d/C")})
	g.Add(rdf.Triple{S: rdf.NewIRI("http://e/b"), P: typ, O: rdf.NewLiteral("http://d/C")})
	g.Add(rdf.Triple{S: rdf.NewIRI("http://e/a"), P: rdf.NewIRI("http://d/p"), O: rdf.NewIRI("http://e/b")})
	g.Add(rdf.Triple{S: rdf.NewBlank("http://e/a"), P: rdf.NewIRI("http://d/q"), O: rdf.NewLiteral("x")})
	out["lexical-class"] = g
	return out
}

// TestSketchMatchesMeasureLOD: one Add pass over a graph's triples, and
// MeasureLOD over the graph, must reproduce the reference profile exactly
// (==, not within epsilon — every aggregation is fully deterministic).
func TestSketchMatchesMeasureLOD(t *testing.T) {
	for name, g := range sketchFixtures(t) {
		want := profileReference(g.Triples())
		if got := MeasureLOD(g); got != want {
			t.Errorf("%s: MeasureLOD %+v != reference %+v", name, got, want)
		}
		sk := NewLODSketch()
		for _, tr := range g.Triples() {
			sk.Add(tr)
		}
		if got := sk.Profile(); got != want {
			t.Errorf("%s: sketch profile %+v != reference %+v", name, got, want)
		}
	}
}

// TestSketchDuplicatesIgnored: raw streams repeat triples; the sketch
// must profile the distinct set like a Graph would.
func TestSketchDuplicatesIgnored(t *testing.T) {
	for name, g := range sketchFixtures(t) {
		want := profileReference(g.Triples())
		sk := NewLODSketch()
		for pass := 0; pass < 3; pass++ {
			for _, tr := range g.Triples() {
				sk.Add(tr)
			}
		}
		if got := sk.Profile(); got != want {
			t.Errorf("%s: duplicated stream changed profile: %+v != %+v", name, got, want)
		}
		if sk.Len() != g.Len() {
			t.Errorf("%s: distinct count %d != %d", name, sk.Len(), g.Len())
		}
	}
}

// TestSketchPartitionMerge is the mergeability property mirroring
// kb.Merge: cut the raw stream into k contiguous partitions at random
// points, sketch each independently with its stream offset, merge in a
// random permutation — the profile must equal the reference over the
// whole stream exactly, for every k and permutation tried.
func TestSketchPartitionMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for name, g := range sketchFixtures(t) {
		// Raw stream with duplicates sprinkled in, so partitions overlap
		// on content and dedup-by-position is actually exercised.
		var raw []rdf.Triple
		for _, tr := range g.Triples() {
			raw = append(raw, tr)
			if rng.Intn(4) == 0 {
				raw = append(raw, tr)
			}
		}
		want := profileReference(raw)
		for _, k := range []int{1, 2, 3, 7} {
			for trial := 0; trial < 4; trial++ {
				// Random contiguous partition bounds.
				cuts := make([]int, 0, k+1)
				cuts = append(cuts, 0)
				for i := 1; i < k; i++ {
					cuts = append(cuts, rng.Intn(len(raw)+1))
				}
				cuts = append(cuts, len(raw))
				sortInts(cuts)

				parts := make([]*LODSketch, k)
				for i := 0; i < k; i++ {
					parts[i] = NewLODSketchAt(uint64(cuts[i]))
					for _, tr := range raw[cuts[i]:cuts[i+1]] {
						parts[i].Add(tr)
					}
				}
				perm := rng.Perm(k)
				merged := NewLODSketch()
				for _, i := range perm {
					merged.Merge(parts[i])
				}
				if got := merged.Profile(); got != want {
					t.Fatalf("%s: k=%d trial=%d perm=%v: merged profile %+v != reference %+v",
						name, k, trial, perm, got, want)
				}
				if merged.Observed() != uint64(len(raw)) {
					t.Fatalf("%s: merged Observed() = %d, want %d", name, merged.Observed(), len(raw))
				}
			}
		}
	}
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// TestSketchFirstTypeAcrossPartitions pins the order-sensitive case: a
// subject typed A early and B later, with the cut between the two type
// triples. Whatever order the partitions merge in, the subject's class
// must resolve to A (the earlier position), as in a monolithic pass.
func TestSketchFirstTypeAcrossPartitions(t *testing.T) {
	typ := rdf.NewIRI(rdf.RDFType)
	s := rdf.NewIRI("http://e/s")
	p := rdf.NewIRI("http://d/p")
	raw := []rdf.Triple{
		{S: s, P: typ, O: rdf.NewIRI("http://d/A")},
		{S: s, P: p, O: rdf.NewInteger(1)},
		{S: s, P: typ, O: rdf.NewIRI("http://d/B")},
	}
	want := profileReference(raw)
	mono := NewLODSketch()
	for _, tr := range raw {
		mono.Add(tr)
	}
	if got := mono.Profile(); got != want {
		t.Fatalf("monolithic profile %+v != reference %+v", got, want)
	}

	first := NewLODSketchAt(0)
	first.Add(raw[0])
	second := NewLODSketchAt(1)
	second.Add(raw[1])
	second.Add(raw[2])

	for _, order := range [][]*LODSketch{{first, second}, {second, first}} {
		m := NewLODSketch()
		m.Merge(order...)
		if got := m.Profile(); got != want {
			t.Fatalf("merge order changed profile: %+v != %+v", got, want)
		}
	}
}

// TestSketchEmpty: zero triples must profile like the reference over an
// empty stream, and merging empties stays empty.
func TestSketchEmpty(t *testing.T) {
	sk := NewLODSketch()
	sk.Merge(NewLODSketch(), NewLODSketchAt(5))
	got := sk.Profile()
	if want := profileReference(nil); got != want {
		t.Fatalf("empty sketch profile %+v != reference %+v", got, want)
	}
}
