package main

import (
	"math"
	"testing"
)

func TestMannWhitneyU(t *testing.T) {
	for _, tc := range []struct {
		name    string
		a, b    []float64
		u, p    float64
		exactly bool
	}{
		// Every a above every b: U = n1*n2 and the exact two-sided p is
		// 2/C(10,5) = 2/252.
		{"separated", []float64{6, 7, 8, 9, 10}, []float64{1, 2, 3, 4, 5}, 25, 2.0 / 252, true},
		{"separated-reversed", []float64{1, 2, 3, 4, 5}, []float64{6, 7, 8, 9, 10}, 0, 2.0 / 252, true},
		// Interleaved: a = {1,3,5}, b = {2,4,6}: pairs a>b are (3,2),
		// (5,2), (5,4) → U = 3; P(U<=3) = 7/20 for n1 = n2 = 3.
		{"interleaved", []float64{1, 3, 5}, []float64{2, 4, 6}, 3, 0.7, true},
		// Ties count one half each: U = 0.5*9 = 4.5, exactly the null mean.
		{"all-tied", []float64{1, 1, 1}, []float64{1, 1, 1}, 4.5, 1, false},
	} {
		u, p := mannWhitney(tc.a, tc.b)
		if u != tc.u {
			t.Errorf("%s: U = %v, want %v", tc.name, u, tc.u)
		}
		if tc.exactly && math.Abs(p-tc.p) > 1e-12 {
			t.Errorf("%s: p = %v, want %v", tc.name, p, tc.p)
		}
		if !tc.exactly && p < 0.99 {
			t.Errorf("%s: p = %v, want about %v", tc.name, p, tc.p)
		}
	}
}

func TestMannWhitneyNormalApproximation(t *testing.T) {
	// 60 against 60 shifted values is past the exact table and must still
	// find the shift; the same sample against itself must not.
	var a, b []float64
	for i := 0; i < 60; i++ {
		a = append(a, float64(i))
		b = append(b, float64(i)+30.5)
	}
	if _, p := mannWhitney(a, b); p > 1e-3 {
		t.Errorf("shifted samples: p = %v, want < 1e-3", p)
	}
	if _, p := mannWhitney(a, a); p < 0.9 {
		t.Errorf("identical samples: p = %v, want about 1", p)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v, %v; want 1, 4", q1, q3)
	}
}

func TestClaimRule(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := []float64{90, 91, 89, 90, 92, 88, 90, 91, 89, 90}
	if wins, pairs, ok := claimRule(base, faster, true); !ok || wins != 10 || pairs != 10 {
		t.Errorf("10/10 wins by 10%% with IQR ~2: got wins %d/%d ok %v", wins, pairs, ok)
	}
	// Nine wins of ten still claims; eight does not.
	nine := append([]float64(nil), faster...)
	nine[0] = 101
	if _, _, ok := claimRule(base, nine, true); !ok {
		t.Error("9/10 wins must claim")
	}
	eight := append([]float64(nil), nine...)
	eight[1] = 102
	if _, _, ok := claimRule(base, eight, true); ok {
		t.Error("8/10 wins must not claim")
	}
	// Winning every pair by less than the parent's IQR is not a claim.
	slightly := make([]float64, len(base))
	for i, v := range base {
		slightly[i] = v - 0.5
	}
	if _, _, ok := claimRule(base, slightly, true); ok {
		t.Error("a shift inside the parent's IQR must not claim")
	}
	// Ties count for neither side.
	if wins, _, _ := claimRule(base, base, true); wins != 0 {
		t.Errorf("ties counted as %d wins", wins)
	}
	// Higher-is-better metrics win upward.
	if _, _, ok := claimRule(faster, base, false); !ok {
		t.Error("throughput up 10% on every pair must claim")
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v + d
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		change []float64
		want   string
	}{
		{"same", shift(0), "ok"},
		{"worse within bound", shift(3), "ok"},
		{"worse beyond bound", shift(20), "regression"},
		{"better", shift(-20), "gain"},
		{"noisy", []float64{50, 150, 60, 140, 100, 100, 70, 130, 90, 110}, "unresolved"},
	} {
		if got := verdict(base, tc.change, true, 0.1); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
