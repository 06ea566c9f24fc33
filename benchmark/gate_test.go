package main

import "testing"

// TestGateSelfTest is the negative test of the correctness gate: a swapped
// order, a crashed node whose order is not a prefix, a diverging state root
// and a write ordered twice or never must all fail it, and a sound history
// with a crashed node's shorter prefix must pass.
func TestGateSelfTest(t *testing.T) {
	if err := gateSelfTest(); err != nil {
		t.Fatal(err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31.0 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
	if p := percentile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.95); p != 10 {
		t.Fatalf("p95 of ten samples = %v, want the 10th", p)
	}
	if p := percentile([]float64{1, 2, 3, 4}, 0.50); p != 2 {
		t.Fatalf("p50 of four samples = %v, want the 2nd", p)
	}
}
