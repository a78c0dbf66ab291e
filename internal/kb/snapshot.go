package kb

import (
	"math"

	"openbi/internal/dq"
	"openbi/internal/provenance"
)

// curveKey addresses one precomputed degradation curve.
type curveKey struct {
	algorithm string
	criterion dq.Criterion
}

// Snapshot is the immutable read side of the knowledge base: every
// degradation curve (both axes), clean baseline and sensitivity is
// precomputed at construction, so all query methods — Advise,
// PredictKappa, Curve, SensitivityTable — are pure map lookups with no
// locks and no mutation. A Snapshot is therefore safe to share across any
// number of concurrent goroutines, and stays internally consistent no
// matter what the builder it came from does afterwards.
//
// Returned slices are the snapshot's own precomputed storage; treat them
// as read-only.
type Snapshot struct {
	size       int
	algorithms []string
	baselines  map[string]float64
	injected   map[curveKey][]CurvePoint // injected-severity axis
	measured   map[curveKey][]CurvePoint // measured-severity axis
	sens       map[curveKey]float64
	provRoot   string // Merkle root over the records (see ProvenanceRoot)
}

// Snapshot freezes the current records into an immutable, query-optimized
// view. The snapshot is fully detached: later Adds to k do not affect it.
func (k *KnowledgeBase) Snapshot() *Snapshot {
	s := &Snapshot{
		size:       len(k.Records),
		algorithms: algorithmsOf(k.Records),
		baselines:  map[string]float64{},
		injected:   map[curveKey][]CurvePoint{},
		measured:   map[curveKey][]CurvePoint{},
		sens:       map[curveKey]float64{},
	}
	if leaves, err := RecordLeaves(k.Records); err == nil {
		s.provRoot = provenance.NewTree(leaves).RootHex()
	}
	for _, alg := range s.algorithms {
		s.baselines[alg] = baselineOf(k.Records, alg)
		for _, crit := range dq.AllCriteria() {
			key := curveKey{alg, crit}
			inj := curveOf(k.Records, alg, crit, false)
			s.injected[key] = inj
			s.measured[key] = curveOf(k.Records, alg, crit, true)
			s.sens[key] = -slopeOf(inj)
		}
	}
	return s
}

// Len returns the number of records the snapshot was built from.
func (s *Snapshot) Len() int { return s.size }

// ProvenanceRoot returns the Merkle root (lowercase hex) over the
// snapshot's records in their canonical encoding — the same value a
// manifest built for the saved kb.json pins, so the serving stack and
// mined provenance triples can cite the lineage of the advice they give.
// Empty when the records could not be canonically encoded.
func (s *Snapshot) ProvenanceRoot() string { return s.provRoot }

// Algorithms returns the distinct algorithm names, sorted. Read-only.
func (s *Snapshot) Algorithms() []string { return s.algorithms }

// Curve returns the Phase-1 degradation curve of one algorithm under one
// criterion on the *injected*-severity axis: records grouped by severity
// (mixed-run records excluded), averaged, sorted. The severity-0 clean
// baselines of every criterion are pooled into the first point. This is
// the axis experiment tables report.
func (s *Snapshot) Curve(algorithm string, criterion dq.Criterion) []CurvePoint {
	return s.injected[curveKey{algorithm, criterion}]
}

// MeasuredCurve is Curve on the *measured*-severity axis — the coordinate
// system dq.Profile produces and therefore the one advice interpolates in.
func (s *Snapshot) MeasuredCurve(algorithm string, criterion dq.Criterion) []CurvePoint {
	return s.measured[curveKey{algorithm, criterion}]
}

// BaselineKappa returns the mean clean (severity-0, non-mixed) kappa of an
// algorithm, or 0 when no baseline exists.
func (s *Snapshot) BaselineKappa(algorithm string) float64 {
	return s.baselines[algorithm]
}

// Sensitivity returns the per-unit-severity kappa loss of an algorithm
// under a criterion, estimated by least squares over the degradation
// curve. Positive values mean degradation (kappa falls as severity rises);
// this is the "algorithm × criterion sensitivity table" the F2-KB
// experiment reports.
func (s *Snapshot) Sensitivity(algorithm string, criterion dq.Criterion) float64 {
	return s.sens[curveKey{algorithm, criterion}]
}

// PredictKappa estimates the kappa an algorithm would achieve on a source
// whose dq severity vector (dq.AllCriteria order) is given: clean baseline
// minus the interpolated per-criterion losses, additive across criteria.
// The additive composition is first-order; the Phase-2 mixed experiments
// measure how far reality departs from it. The advisor-validation
// experiment (F2-ADV, experiment.Validate) does not show that the ranking
// is good: it reports the advisor's top-1/top-2 hit rates and mean kappa
// regret beside the regret of the best single algorithm chosen in
// hindsight, and nothing more. Over 100 trials on each of three held-out
// seeds with the default `experiments -rows 500 -folds 5 -seed 42` KB,
// the advisor's mean regret was on par with always choosing logistic (the
// KB's best clean baseline, a choice that needs no profiling) and higher
// than always choosing naive-bayes on every seed.
func (s *Snapshot) PredictKappa(algorithm string, severities []float64) float64 {
	pred := s.baselines[algorithm]
	for _, c := range dq.AllCriteria() {
		sev := 0.0
		if int(c) < len(severities) {
			sev = severities[c]
		}
		if sev <= 0 {
			continue
		}
		pred -= s.interpolatedLoss(algorithm, c, sev)
	}
	if pred < -1 {
		pred = -1
	}
	return pred
}

// interpolatedLoss reads the kappa loss at measured severity sev off the
// precomputed measured-axis curve (see lossAt for the interpolation and
// flooring rules).
func (s *Snapshot) interpolatedLoss(algorithm string, c dq.Criterion, sev float64) float64 {
	return lossAt(s.measured[curveKey{algorithm, c}], sev)
}

// SensitivityTable renders the algorithm × criterion sensitivity matrix:
// rows keyed by algorithm name in sorted order, one column per criterion
// in dq.AllCriteria order. NaN cells mean "no data".
func (s *Snapshot) SensitivityTable() (algorithms []string, criteria []dq.Criterion, cells [][]float64) {
	algorithms = s.algorithms
	criteria = dq.AllCriteria()
	cells = make([][]float64, len(algorithms))
	for i, a := range algorithms {
		cells[i] = make([]float64, len(criteria))
		for j, c := range criteria {
			key := curveKey{a, c}
			if len(s.injected[key]) < 2 {
				cells[i][j] = math.NaN()
				continue
			}
			cells[i][j] = s.sens[key]
		}
	}
	return algorithms, criteria, cells
}
