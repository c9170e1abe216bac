package main

import (
	"math"
	"reflect"
	"testing"
)

// TestRepeatable runs set-up and one pass of each library workload twice
// with the same seed: the objects produced and every query's answer
// fingerprint (answer, produced objects, result rows in order) must repeat
// exactly, or produced_per_query could not expose a changed plan.
func TestRepeatable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each library workload twice")
	}
	for _, w := range []string{"plan-cold", "exec-warm"} {
		t.Run(w, func(t *testing.T) {
			var produced []float64
			var prints [][]uint64
			for i := 0; i < 2; i++ {
				s, _, _, err := setupLibrary(w, 7, nil)
				if err != nil {
					t.Fatal(err)
				}
				p := runLibrary(s, 0, nil, nil)
				if len(p.wrong) > 0 || p.failed > 0 {
					t.Fatalf("run %d: %d failed: %v", i, p.failed, p.wrong)
				}
				if p.attempted != len(s.queries) {
					t.Fatalf("run %d: %d queries attempted, want one pass of %d", i, p.attempted, len(s.queries))
				}
				produced = append(produced, p.produced/float64(p.correct))
				prints = append(prints, p.prints)
			}
			if produced[0] != produced[1] {
				t.Errorf("produced_per_query %v then %v", produced[0], produced[1])
			}
			if !reflect.DeepEqual(prints[0], prints[1]) {
				t.Errorf("answer fingerprints differ:\n%x\n%x", prints[0], prints[1])
			}
		})
	}
}

// TestHDQuantile checks the Harrell–Davis estimator against cases with a
// known answer: symmetry puts the median of 1..n at (n+1)/2, a constant
// sample estimates itself, and the weights sum to one.
func TestHDQuantile(t *testing.T) {
	for _, n := range []int{2, 3, 30, 43, 500} {
		xs := make([]float64, n)
		ones := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1)
			ones[i] = 1
		}
		if got, want := hdQuantile(xs, 0.5), float64(n+1)/2; math.Abs(got-want) > 1e-9*want {
			t.Errorf("n=%d: median %v, want %v", n, got, want)
		}
		for _, q := range []float64{0.05, 0.5, 0.95} {
			if got := hdQuantile(ones, q); math.Abs(got-1) > 1e-9 {
				t.Errorf("n=%d q=%v: constant sample gives %v", n, q, got)
			}
		}
		if lo, hi := hdQuantile(xs, 0.5), hdQuantile(xs, 0.95); !(lo < hi && hi <= float64(n)) {
			t.Errorf("n=%d: p50 %v, p95 %v out of order", n, lo, hi)
		}
	}
}
