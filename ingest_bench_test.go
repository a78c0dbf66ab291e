package openbi

import (
	"bytes"
	"runtime"
	"testing"

	"openbi/internal/core"
	"openbi/internal/dq"
	"openbi/internal/rdf"
	"openbi/internal/synth"
)

// lodDocument serializes a dirty municipal LOD graph with the given
// entity count, repeated `copies` times (raw duplicate triples — the
// multi-portal case the paper motivates).
func lodDocument(b *testing.B, entities, copies int) ([]byte, int) {
	b.Helper()
	g, err := synth.MunicipalBudgetLOD(synth.LODSpec{Entities: entities, Seed: 42, Dirtiness: 0.2})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	for i := 0; i < copies; i++ {
		if err := rdf.WriteNTriples(&buf, g); err != nil {
			b.Fatal(err)
		}
	}
	return buf.Bytes(), g.Len() * copies
}

// reportIngestMetrics attaches the two scaling metrics next to ns/op and
// B/op: bytes allocated per streamed triple (must stay flat as the
// document grows — allocation cost is per triple, not per graph) and the
// live working set the path needs resident at completion, measured after
// a GC with the path's intermediate state still referenced (the streaming
// path holds sketch + projector + table; the batch path holds the graph +
// profile + table).
func reportIngestMetrics(b *testing.B, triples int, run func() any) {
	b.ReportAllocs()
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	allocStart, liveStart := ms.TotalAlloc, ms.HeapAlloc
	var keep any
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keep = run()
	}
	b.StopTimer()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.TotalAlloc-allocStart)/float64(b.N)/float64(triples), "B/triple")
	if ms.HeapAlloc > liveStart {
		b.ReportMetric(float64(ms.HeapAlloc-liveStart), "live-B")
	} else {
		b.ReportMetric(0, "live-B")
	}
	runtime.KeepAlive(keep)
}

// streamState keeps every streaming intermediate alive for the live-B
// measurement.
type streamState struct {
	sketch *dq.LODSketch
	proj   *rdf.Projector
	ing    *core.LODIngest
}

// batchState keeps the batch path's working set alive: the resident
// graph is what the streaming pipeline exists to avoid.
type batchState struct {
	g       *rdf.Graph
	profile dq.LODProfile
	table   any
}

// BenchmarkIngestLOD compares the single-pass streaming ingestion
// (decoder → sketch + projector over one term dictionary, as
// core.IngestLOD runs it) against the batch path (load graph →
// MeasureLOD → ProjectLargestClass) at 1× and 10× triple counts, plus a
// duplicate-heavy 10× stream over the 1× entity set — the case where the
// streaming path's working set must not grow at all. Outputs land in
// BENCH_ingest.json via `make bench`.
func BenchmarkIngestLOD(b *testing.B) {
	const baseEntities = 1500
	variants := []struct {
		name     string
		entities int
		copies   int
	}{
		{"1x", baseEntities, 1},
		{"10x", baseEntities * 10, 1},
		{"dup10x", baseEntities, 10}, // 10x raw triples, same distinct graph
	}
	opts := rdf.ProjectOptions{LargestClass: true}
	for _, v := range variants {
		data, triples := lodDocument(b, v.entities, v.copies)
		b.Run("stream-"+v.name, func(b *testing.B) {
			reportIngestMetrics(b, triples, func() any {
				dict := rdf.NewDict()
				st := &streamState{sketch: dq.NewLODSketchOn(dict)}
				proj, err := rdf.NewProjectorOn(dict, opts)
				if err != nil {
					b.Fatal(err)
				}
				st.proj = proj
				err = rdf.Stream(bytes.NewReader(data), "nt", func(tr rdf.Triple) error {
					s, p := dict.ID(tr.S), dict.ID(tr.P)
					st.sketch.AddIDs(s, p, dict.ID(tr.O))
					st.proj.AddIDs(s, p, tr.O)
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
				t, err := st.proj.Table()
				if err != nil {
					b.Fatal(err)
				}
				st.ing = &core.LODIngest{Table: t, Profile: st.sketch.Profile(), Triples: triples}
				return st
			})
		})
		b.Run("batch-"+v.name, func(b *testing.B) {
			reportIngestMetrics(b, triples, func() any {
				g, err := rdf.ReadNTriples(bytes.NewReader(data))
				if err != nil {
					b.Fatal(err)
				}
				t, err := core.ProjectLargestClass(g)
				if err != nil {
					b.Fatal(err)
				}
				return &batchState{g: g, profile: dq.MeasureLOD(g), table: t}
			})
		})
	}
}
