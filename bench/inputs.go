package main

// Workload inputs. Everything here is a pure function of the seed: the same
// seed always yields the same sources and the same request streams, and the
// program under test only ever sees the generated inputs.

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"openbi/internal/dq"
	"openbi/internal/rdf"
	"openbi/internal/synth"
)

const (
	// The behaviour contract: `openbi experiments -rows 120 -folds 3 -seed
	// 42` must write exactly this KB, and `openbi generate -kind municipal
	// -n 200 -seed 42 -dirty 0.2` followed by `openbi ingest -csv` exactly
	// this projected table.
	goldenKBSHA256  = "1fae960cefdcab53e41b447620e13d1f495439006ef2b6dfeba7443121fd66cd"
	goldenCSVSHA256 = "318960a607880e6a656b8fd643dd2985878f82e62e0986196a8900b398775e23"

	classColumn    = "fundingLevel"
	sourceEntities = 20000
	sourceDirt     = 0.2
	gridRows       = 500
	gridFolds      = 5
	gridDatasets   = 4 // reference datasets per grid run; see gridSeedsOf

	// hotProfiles profiles, each sent in two body encodings, occupy
	// 3*hotProfiles advice-cache entries (one quantized key, two exact-body
	// keys): 768, under the server's default of 1024.
	hotProfiles = 256
	zipfS       = 1.1
)

// source is one ingest input file.
type source struct {
	kind    string // nt, ttl or nt-dup3
	path    string
	triples int // raw triples in the file, duplicates included
}

// turtlePrefixes abbreviate the generator's vocabularies so the Turtle copy
// exercises prefixed names, not just full IRIs.
var turtlePrefixes = map[string]string{
	"ex":   synth.NSBase,
	"def":  synth.NSDef,
	"rdf":  "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
	"rdfs": "http://www.w3.org/2000/01/rdf-schema#",
	"owl":  "http://www.w3.org/2002/07/owl#",
	"xsd":  "http://www.w3.org/2001/XMLSchema#",
	"dct":  "http://purl.org/dc/terms/",
}

// writeDerived writes two copies of an N-Triples export of the municipal
// generator beside it: the same graph as Turtle (a different decoder) and
// the export repeated three times (three times the raw triples, the same
// distinct graph). Loading the graph takes a few hundred MB, so the
// end-to-end run does this in a child process (see deriveCommand).
func writeDerived(ntPath string) error {
	data, err := os.ReadFile(ntPath)
	if err != nil {
		return err
	}
	g, err := rdf.ReadNTriples(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("reading %s: %w", ntPath, err)
	}
	if lines := bytes.Count(data, []byte("\n")); lines != g.Len() {
		return fmt.Errorf("%s: %d lines but %d distinct triples; the generator should write each triple once", ntPath, lines, g.Len())
	}
	var ttl bytes.Buffer
	if err := rdf.WriteTurtle(&ttl, g, turtlePrefixes); err != nil {
		return err
	}
	srcs := sourcePaths(ntPath)
	if err := os.WriteFile(srcs[1], ttl.Bytes(), 0o644); err != nil {
		return err
	}
	return os.WriteFile(srcs[2], bytes.Repeat(data, 3), 0o644)
}

// sourcePaths names the three ingest sources of one export.
func sourcePaths(ntPath string) [3]string {
	base := strings.TrimSuffix(ntPath, filepath.Ext(ntPath))
	return [3]string{ntPath, base + ".ttl", base + "-dup3.nt"}
}

// sources describes the three ingest sources of an export writeDerived has
// run on. Each line of the export is one triple.
func sources(ntPath string) ([]source, error) {
	f, err := os.Open(ntPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	lines := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		lines++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	p := sourcePaths(ntPath)
	return []source{
		{kind: "nt", path: p[0], triples: lines},
		{kind: "ttl", path: p[1], triples: lines},
		{kind: "nt-dup3", path: p[2], triples: 3 * lines},
	}, nil
}

// writeMunicipal writes the municipal LOD export `openbi generate -kind
// municipal -n n -seed seed -dirty 0.2` writes, for the in-process run.
func writeMunicipal(path string, n int, seed int64) error {
	g, err := synth.MunicipalBudgetLOD(synth.LODSpec{Entities: n, Dirtiness: sourceDirt, Seed: seed})
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := rdf.WriteNTriples(&buf, g); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// adviseReq is one POST /v1/advise body and the severity vector it encodes.
type adviseReq struct {
	body []byte
	sev  []float64
}

// encodeAdvise renders a severity vector as either request encoding the
// server accepts: the positional "severities" array or the "profile" map
// keyed by criterion name.
func encodeAdvise(sev []float64, asProfile bool) adviseReq {
	var b bytes.Buffer
	if asProfile {
		b.WriteString(`{"profile":{`)
		first := true
		for i, c := range dq.AllCriteria() {
			if sev[i] == 0 {
				continue
			}
			if !first {
				b.WriteByte(',')
			}
			first = false
			fmt.Fprintf(&b, "%q:%s", c.String(), strconv.FormatFloat(sev[i], 'f', -1, 64))
		}
		b.WriteString("}}")
	} else {
		b.WriteString(`{"severities":[`)
		for i, v := range sev {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatFloat(v, 'f', -1, 64))
		}
		b.WriteString("]}")
	}
	return adviseReq{body: b.Bytes(), sev: sev}
}

// rng returns the random stream for one purpose of one seed, so adding a
// consumer never shifts another consumer's inputs.
func rng(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// Stream identifiers for rng.
const (
	streamProfiles = 1
	streamGrid     = 2
	streamHot      = 100 // + worker
	streamCold     = 200 // + worker
	streamArrivals = 300 // + level*16 + worker
)

// gridSeedsOf draws the seeds of the reference datasets a grid run builds
// from. A build's cost depends on its dataset: on one machine, the grids
// of eight seeds took from 0.95 to 1.11 times their common median. One
// dataset per run would carry that into the run's median; several spread
// over the run average it out.
func gridSeedsOf(seed int64) []int64 {
	r := rng(seed, streamGrid)
	seeds := make([]int64, gridDatasets)
	for i := range seeds {
		seeds[i] = r.Int64N(1 << 31)
	}
	return seeds
}

// hotProfileSet draws n distinct severity profiles on the server's 0.01
// cache grid, each in both encodings. Each criterion is non-zero with
// probability one half, uniform on 0.01..0.50.
func hotProfileSet(seed int64, n int) [][2]adviseReq {
	r := rng(seed, streamProfiles)
	seen := map[string]bool{}
	out := make([][2]adviseReq, 0, n)
	for len(out) < n {
		sev := make([]float64, len(dq.AllCriteria()))
		for i := range sev {
			if r.IntN(2) == 1 {
				sev[i] = float64(1+r.IntN(50)) / 100
			}
		}
		key := fmt.Sprint(sev)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, [2]adviseReq{encodeAdvise(sev, false), encodeAdvise(sev, true)})
	}
	return out
}

// reqGen yields the next request of one client's stream.
type reqGen func() adviseReq

// hotStream picks profiles by Zipf(1.1) rank and an encoding by coin flip:
// callers that repeat a small set of questions, so the cache answers.
func hotStream(profiles [][2]adviseReq, seed int64, worker int) reqGen {
	r := rng(seed, streamHot+uint64(worker))
	z := rand.NewZipf(r, zipfS, 1, uint64(len(profiles)-1))
	return func() adviseReq { return profiles[z.Uint64()][r.IntN(2)] }
}

// coldStream draws every criterion uniformly on the 0.01 grid: 101^7
// distinct vectors, so the working set dwarfs the cache and nearly every
// request is scored.
func coldStream(seed int64, worker int) reqGen {
	r := rng(seed, streamCold+uint64(worker))
	return func() adviseReq {
		sev := make([]float64, len(dq.AllCriteria()))
		for i := range sev {
			sev[i] = float64(r.IntN(101)) / 100
		}
		return encodeAdvise(sev, r.IntN(2) == 1)
	}
}
