package main

import (
	"math"
	"testing"

	"samsys/internal/octlib"
)

// TestChecksRejectNonFinite feeds the output checks a factor block and a
// body holding NaN or Inf: each must fail, while the clean output passes.
func TestChecksRejectNonFinite(t *testing.T) {
	ref := map[[2]int32][]float64{{0, 0}: {2, 0, 1, 3}, {1, 0}: {0.5, 0.25}}
	copyL := func() map[[2]int32][]float64 {
		l := map[[2]int32][]float64{}
		for k, v := range ref {
			l[k] = append([]float64(nil), v...)
		}
		return l
	}
	if err := checkFactor(copyL(), ref); err != nil {
		t.Fatalf("clean factor rejected: %v", err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		l := copyL()
		l[[2]int32{1, 0}][1] = bad
		if err := checkFactor(l, ref); err == nil {
			t.Errorf("factor holding %v accepted", bad)
		}
	}

	want := octlib.RandomBodies(8, 1)
	got := append([]octlib.Body(nil), want...)
	if err := checkBodies(got, want); err != nil {
		t.Fatalf("clean bodies rejected: %v", err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(-1)} {
		got := append([]octlib.Body(nil), want...)
		got[3].Vel[2] = bad
		if err := checkBodies(got, want); err == nil {
			t.Errorf("body with velocity %v accepted", bad)
		}
		got[3].Vel[2], got[5].Pos[0] = want[3].Vel[2], bad
		if err := checkBodies(got, want); err == nil {
			t.Errorf("body with position %v accepted", bad)
		}
	}
}
