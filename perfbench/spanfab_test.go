package main

import (
	"os"
	"testing"

	"samsys/internal/fabric"
	"samsys/internal/fabric/fabtest"
)

// TestSpanWrapperConformance runs the fabric conformance suite over the
// span wrapper on each of the four fabrics: recording spans must not
// change what the runtime can rely on.
func TestSpanWrapperConformance(t *testing.T) {
	r := &run{shmDir: t.TempDir()}
	for _, kind := range fabrics {
		t.Run(kind, func(t *testing.T) {
			fabtest.Run(t, func(n int) (fabric.Fabric, error) {
				r.ranks = n
				inner, err := r.newFabric(kind)
				if err != nil {
					return nil, err
				}
				_, fab := wrapSpans(inner, 0)
				return fab, nil
			})
		})
	}
}

// TestSpanSelfTimes checks that the four kinds' self times on a traced
// solve account for the nodes' application time.
func TestSpanSelfTimes(t *testing.T) {
	r := &run{shmDir: t.TempDir(), ranks: 2, seed: 1, workdir: t.TempDir()}
	a := &tracedApp{app: "cholesky"}
	if err := r.spanSolve("gofab", 0, a, nil, cholSolve(cholMatrix(1))); err != nil {
		t.Fatal(err)
	}
	if len(r.problems) > 0 {
		t.Fatal(r.problems)
	}
	var busy float64
	for _, d := range a.self {
		busy += float64(d)
	}
	if share := busy / float64(a.wall) / float64(a.nodes); share < 0.5 || share > 1.01 {
		t.Errorf("self times cover %.2f of nodes × wall time", share)
	}
	if _, err := os.Stat(r.workdir + "/spans/cholesky-gofab-0.jsonl"); err != nil {
		t.Error(err)
	}
}
