// Package mining implements the data-mining step of the KDD process
// (Figure 1) from scratch: a supervised Dataset view over tables, a common
// Classifier interface, and the classifier families the paper's framework
// arbitrates between — rules (ZeroR, OneR), Bayes (Naive Bayes), lazy
// (kNN), trees (C4.5-style and CART-style, plus a random forest) and
// functions (logistic regression) — along with Apriori association-rule
// mining for the unsupervised OpenBI paths.
//
// Everything is deterministic given its configured seed.
package mining

import (
	"fmt"
	"math"
	"sync"

	"openbi/internal/oberr"
	"openbi/internal/stats"
	"openbi/internal/table"
)

// Dataset is a supervised view over tabular data: attribute columns plus
// one nominal class column. It is written against table.Access, so it can
// wrap either a concrete *table.Table or a zero-copy *table.View — fold
// splits and bootstrap resamples produced by Subset share cell storage
// with the root table instead of copying it. It does not own the data;
// corrupting code produces new tables and wraps them in new Datasets.
type Dataset struct {
	// T is the backing data. Treat it (and ClassCol) as read-only after
	// construction: attribute indices and the resolved fast-path fields
	// below are derived from it in NewDataset, so rebinding a Dataset to
	// other data means constructing a new one, not reassigning T.
	T        table.Access
	ClassCol int

	attrCols []int

	// Resolved fast path: the concrete table behind T plus the row/column
	// indirection (nil = identity). Classifier hot loops read column
	// storage through col/row instead of paying interface dispatch per
	// cell; results are identical because a view is, by definition, the
	// same cells behind an index mapping.
	base  *table.Table
	rowIx []int
	colIx []int

	// Lazy caches over the (immutable-after-first-use) backing data. They
	// fill on first access and are safe under concurrent readers, which is
	// how prepared experiment cells share one Dataset across workers.
	// Mutating the backing table after any cache has filled violates the
	// read-only contract on T above.
	rangesOnce sync.Once
	rangeCache map[int]numericRange

	floatsMu    sync.Mutex
	floatsCache map[int][]float64

	indexMu    sync.Mutex
	indexCache *ColumnIndex

	labeledMu    sync.Mutex
	labeledCache []int
}

// resolve fills the fast-path fields from T.
func (d *Dataset) resolve() {
	switch s := d.T.(type) {
	case *table.Table:
		d.base = s
	case *table.View:
		d.base, d.rowIx, d.colIx = s.Base(), s.RowIndex(), s.ColIndex()
	default:
		// Unknown Access implementation: materialize once so reads are
		// plain column reads either way.
		d.base = d.T.Materialize()
	}
}

// col returns the concrete column behind attribute/class column j; cell
// reads must go through row to honour the view's row indirection.
func (d *Dataset) col(j int) *table.Column {
	if d.colIx != nil {
		j = d.colIx[j]
	}
	return d.base.Column(j)
}

// row maps a dataset row index onto the backing table's row index.
func (d *Dataset) row(r int) int {
	if d.rowIx != nil {
		return d.rowIx[r]
	}
	return r
}

// materializeSubsets forces Subset to deep-copy (the pre-view behavior);
// see MaterializeSubsets.
var materializeSubsets bool

// MaterializeSubsets toggles a testing hook: when on, Subset materializes
// every row selection into a fresh table instead of returning a zero-copy
// view. Equivalence tests run the experiment pipeline both ways and assert
// identical knowledge-base output. Not safe to toggle while runs are in
// flight.
func MaterializeSubsets(on bool) { materializeSubsets = on }

// NewDataset wraps a with the class at column classCol. It validates that
// the class column exists and is nominal.
func NewDataset(a table.Access, classCol int) (*Dataset, error) {
	if classCol < 0 || classCol >= a.NumCols() {
		return nil, fmt.Errorf("mining: class column %d out of range (table has %d columns)", classCol, a.NumCols())
	}
	if a.ColumnKind(classCol) != table.Nominal {
		return nil, fmt.Errorf("mining: class column %q must be nominal", a.ColumnName(classCol))
	}
	ds := &Dataset{T: a, ClassCol: classCol}
	ds.resolve()
	for j := 0; j < a.NumCols(); j++ {
		if j != classCol {
			ds.attrCols = append(ds.attrCols, j)
		}
	}
	return ds, nil
}

// NewDatasetByName wraps a with the named class column. A missing column
// returns an error matching oberr.ErrColumnNotFound.
func NewDatasetByName(a table.Access, className string) (*Dataset, error) {
	idx := a.ColumnIndex(className)
	if idx < 0 {
		return nil, fmt.Errorf("mining: class %w", &oberr.ColumnNotFoundError{Column: className})
	}
	return NewDataset(a, idx)
}

// MustNewDataset panics on error; for tests and generators with literal
// schemas.
func MustNewDataset(a table.Access, classCol int) *Dataset {
	ds, err := NewDataset(a, classCol)
	if err != nil {
		panic(err)
	}
	return ds
}

// Len returns the number of instances.
func (d *Dataset) Len() int { return d.T.NumRows() }

// AttrCols returns the attribute column indices (shared slice; read-only).
func (d *Dataset) AttrCols() []int { return d.attrCols }

// NumAttrs returns the number of attribute columns.
func (d *Dataset) NumAttrs() int { return len(d.attrCols) }

// Table returns the concrete table behind the dataset. For a dataset over
// a *table.Table this is the live table itself; for a view-backed dataset
// it is a materialized copy, so mutations to it are not reflected in the
// dataset.
func (d *Dataset) Table() *table.Table { return d.T.Materialize() }

// Class returns the class column. For a dataset over a *table.Table this
// is the live column; for a view-backed dataset it is a materialized
// snapshot that callers must treat as read-only.
func (d *Dataset) Class() *table.Column {
	if t, ok := d.T.(*table.Table); ok {
		return t.Column(d.ClassCol)
	}
	return table.MaterializeColumn(d.T, d.ClassCol)
}

// NumClasses returns the class dictionary size (including levels that may
// have zero instances in this particular split — dictionaries are shared
// across splits so codes always agree).
func (d *Dataset) NumClasses() int { return d.T.NumLevels(d.ClassCol) }

// Label returns the class code of row r (table.MissingCat when missing).
func (d *Dataset) Label(r int) int { return d.col(d.ClassCol).Cats[d.row(r)] }

// ClassName returns the label string for a class code.
func (d *Dataset) ClassName(code int) string { return d.T.Label(d.ClassCol, code) }

// ClassCounts returns instance counts per class code (missing excluded).
func (d *Dataset) ClassCounts() []int {
	counts := make([]int, d.NumClasses())
	cls := d.col(d.ClassCol)
	for r, n := 0, d.Len(); r < n; r++ {
		if code := cls.Cats[d.row(r)]; code >= 0 && code < len(counts) {
			counts[code]++
		}
	}
	return counts
}

// MajorityClass returns the most frequent class code (ties break to the
// lowest code) or 0 on an empty dataset.
func (d *Dataset) MajorityClass() int {
	counts := d.ClassCounts()
	best := 0
	for code, c := range counts {
		if c > counts[best] {
			best = code
		}
	}
	return best
}

// Subset returns a Dataset over the selected rows (indices may repeat).
// The rows are served through a zero-copy view sharing cell storage with
// this dataset; the rows slice is retained, so callers must not mutate it
// afterwards. Subsets of subsets compose into a single indirection.
func (d *Dataset) Subset(rows []int) *Dataset {
	if rows == nil {
		rows = []int{} // a nil selection means empty, not identity
	}
	view := table.RowView(d.T, rows)
	if materializeSubsets {
		return MustNewDataset(view.Materialize(), d.ClassCol)
	}
	sub := MustNewDataset(view, d.ClassCol)
	// Share the presorted column index with children over the same base:
	// fold splits and bootstrap resamples reuse one build per cell.
	d.indexMu.Lock()
	ci := d.indexCache
	d.indexMu.Unlock()
	if ci != nil && ci.base == sub.base {
		sub.indexCache = ci
	}
	return sub
}

// LabeledRows returns the indices of rows whose class is observed;
// classifiers train on these only. The slice is computed once per dataset
// and shared by every caller (the whole classifier suite trains on the
// same fold split), so it is read-only like the backing data it reflects.
func (d *Dataset) LabeledRows() []int {
	d.labeledMu.Lock()
	defer d.labeledMu.Unlock()
	if d.labeledCache == nil {
		out := make([]int, 0, d.Len())
		cls := d.col(d.ClassCol)
		for r, n := 0, d.Len(); r < n; r++ {
			if cls.Cats[d.row(r)] != table.MissingCat {
				out = append(out, r)
			}
		}
		d.labeledCache = out
	}
	return d.labeledCache
}

// Classifier is the common supervised-learning contract. Fit must be
// called before Predict; Predict returns a class code valid for the
// training dictionary (shared across splits by construction).
type Classifier interface {
	// Name returns the registry name of the algorithm ("naive-bayes", ...).
	Name() string
	// Fit trains on ds; it must cope with missing attribute values and
	// must ignore instances with a missing class.
	Fit(ds *Dataset) error
	// Predict classifies row r of ds (any dataset schema-compatible with
	// the training one).
	Predict(ds *Dataset, r int) int
}

// ProbClassifier is implemented by classifiers that can emit a class
// probability distribution (needed for AUC).
type ProbClassifier interface {
	Classifier
	// Proba returns P(class=c | x) for each class code; the slice sums
	// to 1 (up to rounding).
	Proba(ds *Dataset, r int) []float64
}

// Factory builds a fresh, unfitted classifier; cross-validation calls it
// once per fold so no state leaks between folds.
type Factory func() Classifier

// numericRange holds per-column scaling info shared by distance-based code.
type numericRange struct {
	lo, span float64 // span 0 means constant/unknown column
}

// computeRanges scans numeric attribute ranges for distance scaling. It is
// the uncached reference; hot paths go through Dataset.attrRanges.
func computeRanges(ds *Dataset) map[int]numericRange {
	out := make(map[int]numericRange)
	for _, j := range ds.AttrCols() {
		if ds.T.ColumnKind(j) != table.Numeric {
			continue
		}
		lo, hi := stats.MinMax(ds.Floats(j))
		r := numericRange{}
		if !stats.IsMissing(lo) && hi > lo {
			r.lo, r.span = lo, hi-lo
		}
		out[j] = r
	}
	return out
}

// attrRanges returns the numeric attribute ranges, computed once per
// Dataset and shared (read-only) by every classifier fitted on it.
func (d *Dataset) attrRanges() map[int]numericRange {
	d.rangesOnce.Do(func() { d.rangeCache = computeRanges(d) })
	return d.rangeCache
}

// Floats returns the numeric values of column j as a slice, caching the
// gather for row-indirected views so repeated callers (range scans, OneR,
// logistic feature scaling) pay for it once per Dataset. The result
// aliases either live column storage or the shared cache: read-only, per
// the table.Cursor aliasing contract.
func (d *Dataset) Floats(j int) []float64 {
	if _, ok := d.T.(*table.Table); ok {
		return table.Floats(d.T, j) // live backing slice, zero cost
	}
	d.floatsMu.Lock()
	defer d.floatsMu.Unlock()
	if v, ok := d.floatsCache[j]; ok {
		return v
	}
	v := table.Floats(d.T, j)
	if d.floatsCache == nil {
		d.floatsCache = make(map[int][]float64)
	}
	d.floatsCache[j] = v
	return v
}

// heteroDistance is the shared Gower-style distance between row a of da
// and row b of db over the attribute columns of da: scaled absolute
// difference for numeric attributes, 0/1 for nominal, 1 for missing-on-
// either-side. Distances are comparable across calls with the same ranges.
func heteroDistance(da *Dataset, a int, db *Dataset, b int, ranges map[int]numericRange) float64 {
	ra, rb := da.row(a), db.row(b)
	sum := 0.0
	for _, j := range da.AttrCols() {
		ca, cb := da.col(j), db.col(j)
		if ca.IsMissing(ra) || cb.IsMissing(rb) {
			sum++
			continue
		}
		if ca.Kind == table.Numeric {
			rg := ranges[j]
			if rg.span == 0 {
				continue
			}
			d := math.Abs(ca.Nums[ra]-cb.Nums[rb]) / rg.span
			if d > 1 {
				d = 1
			}
			sum += d
		} else if ca.Cats[ra] != cb.Cats[rb] {
			sum++
		}
	}
	return sum
}

// argmax returns the index of the largest value (lowest index on ties).
func argmax(xs []float64) int {
	best := 0
	for i, v := range xs {
		if v > xs[best] {
			best = i
		}
	}
	return best
}

// normalize scales xs to sum to 1 in place (uniform when the sum is 0).
func normalize(xs []float64) []float64 {
	sum := 0.0
	for _, v := range xs {
		sum += v
	}
	if sum <= 0 {
		u := 1 / float64(len(xs))
		for i := range xs {
			xs[i] = u
		}
		return xs
	}
	for i := range xs {
		xs[i] /= sum
	}
	return xs
}
