package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (mean of the two middle values for an
// even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank q-quantile of xs: the smallest value with
// at least q of the samples at or below it. Failed requests enter as +Inf,
// so they count as missing any latency limit.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// quartiles returns the first and third quartile of xs with the "exclusive"
// method of Python's statistics.quantiles(xs, n=4), so spreads printed here
// match the ones the benchmark contract is checked with. It needs at least
// two values; with fewer, both quartiles are the single value (or 0).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// mannWhitney returns the Mann–Whitney U statistic of a against b (the
// number of pairs with a_i > b_j, ties counting one half) and its two-sided
// p-value. Without ties and with both samples of at most 50 values the
// p-value is exact; otherwise it uses the normal approximation with tie and
// continuity correction, as benchstat does.
func mannWhitney(a, b []float64) (u, p float64) {
	n1, n2 := len(a), len(b)
	if n1 == 0 || n2 == 0 {
		return 0, 1
	}
	type obs struct {
		v     float64
		fromA bool
	}
	all := make([]obs, 0, n1+n2)
	for _, v := range a {
		all = append(all, obs{v, true})
	}
	for _, v := range b {
		all = append(all, obs{v, false})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	rankSumA, tieTerm, ties := 0.0, 0.0, false
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		rank := float64(i+j+1) / 2 // mean of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			if all[k].fromA {
				rankSumA += rank
			}
		}
		if t := float64(j - i); t > 1 {
			ties = true
			tieTerm += t*t*t - t
		}
		i = j
	}
	u = rankSumA - float64(n1*(n1+1))/2
	if !ties && n1 <= 50 && n2 <= 50 {
		return u, exactUPValue(n1, n2, u)
	}
	mu := float64(n1*n2) / 2
	n := float64(n1 + n2)
	sigma := math.Sqrt(float64(n1*n2) / 12 * ((n + 1) - tieTerm/(n*(n-1))))
	if sigma == 0 {
		return u, 1
	}
	z := (math.Abs(u-mu) - 0.5) / sigma
	if z < 0 {
		z = 0
	}
	return u, math.Min(1, math.Erfc(z/math.Sqrt2))
}

// exactUPValue is the two-sided p-value of U under the null hypothesis,
// from the exact distribution of U for samples of n1 and n2 distinct
// values: count[k] is the number of orderings with U = k.
func exactUPValue(n1, n2 int, u float64) float64 {
	// f[i][j][k]: orderings of i a-values and j b-values with U = k, built
	// by the last element being an a (adds j to U) or a b (adds nothing).
	maxU := n1 * n2
	prev := make([][]float64, n2+1) // row i-1
	cur := make([][]float64, n2+1)
	for j := range prev {
		prev[j] = make([]float64, maxU+1)
		prev[j][0] = 1 // i = 0: one ordering, U = 0
	}
	for i := 1; i <= n1; i++ {
		for j := 0; j <= n2; j++ {
			cur[j] = make([]float64, maxU+1)
			for k := 0; k <= i*j; k++ {
				if k >= j {
					cur[j][k] += prev[j][k-j]
				}
				if j > 0 {
					cur[j][k] += cur[j-1][k]
				}
			}
		}
		prev, cur = cur, prev
	}
	counts := prev[n2]
	total := sum(counts)
	lo, hi := 0.0, 0.0
	for k, c := range counts {
		if float64(k) <= u {
			lo += c
		}
		if float64(k) >= u {
			hi += c
		}
	}
	return math.Min(1, 2*math.Min(lo, hi)/total)
}

// claimRule applies the gain rule to paired runs: the change must win at
// least nine tenths of the pairs (ties count for neither side) and its
// median must differ from the parent's by more than the parent's
// interquartile range, in the better direction. base[i] and change[i] are
// one pair.
func claimRule(base, change []float64, lowerIsBetter bool) (wins, pairs int, ok bool) {
	n := min(len(base), len(change))
	for i := 0; i < n; i++ {
		better := change[i] > base[i]
		if lowerIsBetter {
			better = change[i] < base[i]
		}
		if better {
			wins++
		}
	}
	pairs = n
	if n == 0 {
		return 0, 0, false
	}
	delta := median(change) - median(base)
	if lowerIsBetter {
		delta = -delta
	}
	q1, q3 := quartiles(base)
	return wins, pairs, float64(wins) >= 0.9*float64(n) && delta > q3-q1
}

// verdict compares one metric's runs on two commits against the metric's
// regression bound (a share of the parent's median). A metric whose
// run-to-run spread on either side exceeds the bound is "unresolved" unless
// every run of the change reads better than every run of the parent.
func verdict(base, change []float64, lowerIsBetter bool, bound float64) string {
	if _, _, ok := claimRule(base, change, lowerIsBetter); ok {
		return "gain"
	}
	if bound <= 0 {
		return "-"
	}
	mb, mc := median(base), median(change)
	worse := (mc - mb) / math.Abs(mb)
	if !lowerIsBetter {
		worse = -worse
	}
	allBetter := true
	for _, c := range change {
		for _, b := range base {
			if (lowerIsBetter && c >= b) || (!lowerIsBetter && c <= b) {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter:
		return "ok"
	case spread(base) > bound || spread(change) > bound:
		return "unresolved"
	case worse > bound:
		return "regression"
	default:
		return "ok"
	}
}
