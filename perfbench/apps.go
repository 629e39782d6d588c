package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"samsys/internal/apps/barneshut"
	"samsys/internal/apps/cholesky"
	"samsys/internal/apps/sparse"
	"samsys/internal/core"
	"samsys/internal/fabric"
	"samsys/internal/fabric/gofab"
	"samsys/internal/fabric/netfab"
	"samsys/internal/fabric/shmfab"
	"samsys/internal/machine"
	"samsys/internal/octlib"
)

// The application workloads: the paper's block fan-out sparse Cholesky on
// each of the four fabrics (one workload per fabric, cholesky_<f>), and
// SAM Barnes-Hut on gofab. Every solve boots a fresh cluster, and every
// factor or body set is checked against a serial reference outside the
// timed interval.

var fabrics = []string{"gofab", "shm", "net", "hybrid"}

// newFabric boots a cluster of the named kind. hybrid is a loopback netfab
// cluster with shm lanes between its co-located ranks and TCP for control
// and abort — what a one-host samnode -fabric shm deployment runs.
func (r *run) newFabric(kind string) (fabric.Fabric, error) {
	switch kind {
	case "gofab":
		return gofab.New(machine.CM5, r.ranks), nil
	case "shm":
		return shmfab.New(machine.CM5, r.ranks, shmfab.WithDir(r.shmDir))
	case "net":
		return netfab.NewLocal(machine.CM5, r.ranks)
	case "hybrid":
		return netfab.NewLocal(machine.CM5, r.ranks, netfab.WithShm(netfab.ShmAuto), netfab.WithShmDir(r.shmDir))
	}
	return nil, fmt.Errorf("unknown fabric %q", kind)
}

func appOptions() core.Options { return core.Options{Coalesce: true} }

const (
	cholBlock = 16
	cholTol   = 1e-8 // absolute; factor entries are O(1)..O(5)
	bhBodies  = 2000
	bhTol     = 1e-9 // absolute, on positions and velocities
	minSolves = 100  // timed rounds per run: ten windows for the windowed p90
	maxRun    = 80 * time.Second
)

// cholMatrix is Grid3DStiff(8,8,8,3) (n=1536) symmetrically scaled by a
// seeded positive diagonal, D·A·D: the sparsity structure and the work
// stay fixed while the values vary with the seed. The scaled matrix is
// positive definite exactly when A is. dof=3 keeps A positive definite;
// see NOTES.md for why dof≥4 is not.
func cholMatrix(seed int64) *sparse.Matrix {
	m := sparse.Grid3DStiff(8, 8, 8, 3)
	rng := rand.New(rand.NewSource(seed))
	d := make([]float64, m.N)
	for i := range d {
		d[i] = 0.5 + rng.Float64()
	}
	for col := 0; col < m.N; col++ {
		for p := m.ColPtr[col]; p < m.ColPtr[col+1]; p++ {
			m.Values[p] *= d[m.RowIdx[p]] * d[col]
		}
	}
	return m
}

// referenceFactor factors m serially (dense) and cuts the factor into the
// block layout cholesky.Run collects: column-major Dim(i)×Dim(j) blocks,
// the strict upper triangle of diagonal blocks zero.
func referenceFactor(m *sparse.Matrix) map[[2]int32][]float64 {
	l := cholesky.SerialDense(m.Full())
	bl := sparse.NewBlocks(sparse.SymbolicFactor(m), cholBlock)
	ref := make(map[[2]int32][]float64)
	for j := 0; j < bl.NB; j++ {
		for _, i32 := range bl.Rows[j] {
			i := int(i32)
			rd, cd := bl.Dim(i), bl.Dim(j)
			blk := make([]float64, rd*cd)
			for c := 0; c < cd; c++ {
				for rr := 0; rr < rd; rr++ {
					gi, gj := i*cholBlock+rr, j*cholBlock+c
					if gi >= gj {
						blk[c*rd+rr] = l[gi][gj]
					}
				}
			}
			ref[[2]int32{i32, int32(j)}] = blk
		}
	}
	return ref
}

// timedSolve boots a cluster of the given kind, runs one solve on it and
// returns the solve's wall time and the cluster's set-up time (constructor
// to the last node's first application step). The heap is collected
// before the clock starts.
func (r *run) timedSolve(kind string, solve func(fabric.Fabric) error) (solveD, bootD time.Duration, err error) {
	runtime.GC()
	t0 := time.Now()
	inner, err := r.newFabric(kind)
	if err != nil {
		return 0, 0, err
	}
	bc, fab := withBootClock(inner)
	t1 := time.Now()
	if err := solve(fab); err != nil {
		return 0, 0, err
	}
	t2 := time.Now()
	return t2.Sub(t1), bc.ready().Sub(t0), nil
}

// batch is what one worker process measured: its timed solves and their
// clusters' set-up times (its first solve is warm-up and not included).
type batch struct {
	Solves    []float64 `json:"solves_ms"`
	Boots     []float64 `json:"boots_ms"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Problems  []string  `json:"problems"`
	PeakMiB   float64   `json:"peak_mib"`
}

// workerSolves is how many timed solves one worker process runs. Each
// process settles into its own speed (NOTES.md), so a run pools many short
// workers rather than a few long ones.
const workerSolves = 10

// workloadApp splits a workload name into its application and the fabric
// it runs on: cholesky_<f> is Cholesky on fabric f, and barneshut runs on
// gofab only (see NOTES.md for why the other fabrics cannot carry it yet).
func workloadApp(wl string) (app, kind string, err error) {
	if wl == "barneshut" {
		return "barneshut", "gofab", nil
	}
	if f, ok := strings.CutPrefix(wl, "cholesky_"); ok && slices.Contains(fabrics, f) {
		return "cholesky", f, nil
	}
	return "", "", fmt.Errorf("unknown workload %q", wl)
}

// appWorkload runs a Cholesky or Barnes-Hut workload. Its solves run in a
// sequence of short-lived worker processes, one at a time, until the run
// has lasted --seconds and at least minSolves solves are timed, or maxRun
// has passed; then it reports the end-to-end metrics. Separate processes do
// two things: a whole run's worth of netfab clusters would leave well over
// 1 GiB behind in one process (see NOTES.md), and the median over several
// processes does not depend on where one process's goroutines happened to
// be scheduled.
func (r *run) appWorkload(wl string) error {
	app, kind, err := workloadApp(wl)
	if err != nil {
		return err
	}
	refPath := ""
	if app == "cholesky" {
		refPath = filepath.Join(r.workdir, fmt.Sprintf("ref-%d.txt", os.Getpid()))
		if err := writeFactor(refPath, referenceFactor(cholMatrix(r.seed))); err != nil {
			return err
		}
		defer os.Remove(refPath)
	}
	var all batch
	var peaks, mids []float64
	start := time.Now()
	for {
		el := time.Since(start)
		if (el >= r.seconds && len(all.Solves) >= minSolves) || el >= maxRun {
			break
		}
		b, err := r.worker(wl, refPath)
		if err != nil {
			return err
		}
		all.Solves = append(all.Solves, b.Solves...)
		all.Boots = append(all.Boots, b.Boots...)
		r.res.Attempted += b.Attempted
		r.res.Failed += b.Failed
		r.problems = append(r.problems, b.Problems...)
		peaks = append(peaks, b.PeakMiB)
		if len(b.Solves) > 0 {
			mids = append(mids, median(b.Solves))
		}
	}
	xs := all.Solves
	if len(xs) < tailWindow {
		return fmt.Errorf("%d successful solves on %s", len(xs), kind)
	}
	p50, p90 := median(xs), windowedQuantile(xs, tailWindow, 0.9)
	fmt.Printf("%s %s.solve_ms=%.3f %s.solve_p90_ms=%.3f (ms; %d solves; p90 over all solves %.3f)\n",
		app, kind, p50, kind, p90, len(xs), quantile(xs, 0.9))
	fmt.Printf("%s each worker's median solve ms: %.1f\n", app, mids)
	fmt.Printf("%s each worker's peak resident MiB: %.1f\n", app, peaks)
	r.set("p50_ms", "ms", p50)
	r.set("tail_ms", "ms", p90)
	r.set("setup_s", "s", median(all.Boots)/1e3)
	// The program runs in the workers; this process only holds the serial
	// reference. A worker's peak varies with when its collections ran, so
	// the mean over workers is reported.
	r.set("mem_peak_mb", "MiB", mean(peaks))
	return nil
}

// worker runs one worker process and decodes its batch.
func (r *run) worker(wl, refPath string) (*batch, error) {
	cmd := exec.Command(os.Args[0], "-worker", wl, "-seed", fmt.Sprint(r.seed),
		"-ref", refPath, "-workdir", r.workdir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s worker: %w", wl, err)
	}
	var b batch
	if err := json.Unmarshal(out, &b); err != nil {
		return nil, fmt.Errorf("%s worker output: %w", wl, err)
	}
	return &b, nil
}

// solver runs one timed solve on a fresh cluster and checks its
// output against the reference, returning the solve and set-up times.
type solver func(kind string) (solveD, bootD time.Duration, err error)

// cholSolver solves the seeded matrix and compares each factor with the
// reference factor read from refPath.
func (r *run) cholSolver(refPath string) (solver, error) {
	ref, err := readFactor(refPath)
	if err != nil {
		return nil, err
	}
	cfg := cholesky.Config{Matrix: cholMatrix(r.seed), BlockSize: cholBlock, Collect: true}
	return func(kind string) (time.Duration, time.Duration, error) {
		var res *cholesky.Result
		sd, bd, err := r.timedSolve(kind, func(fab fabric.Fabric) (err error) {
			res, err = cholesky.Run(fab, appOptions(), cfg)
			return err
		})
		if err == nil {
			err = checkFactor(res.L, ref)
		}
		if err != nil {
			return 0, 0, fmt.Errorf("cholesky on %s: %w", kind, err)
		}
		return sd, bd, nil
	}, nil
}

// bhSolver evolves the seeded bodies and compares them with the serial run.
func (r *run) bhSolver() solver {
	bodies := octlib.RandomBodies(bhBodies, r.seed)
	want := barneshut.RunSerial(bodies, bhParams).Bodies
	cfg := barneshut.Config{Bodies: bodies, Params: bhParams}
	return func(kind string) (time.Duration, time.Duration, error) {
		var res *barneshut.Result
		sd, bd, err := r.timedSolve(kind, func(fab fabric.Fabric) (err error) {
			res, err = barneshut.Run(fab, appOptions(), cfg)
			return err
		})
		if err == nil {
			err = checkBodies(res.Bodies, want)
		}
		if err != nil {
			return 0, 0, fmt.Errorf("barneshut: %w", err)
		}
		return sd, bd, nil
	}
}

// checkFactor accepts a collected factor only if every entry is finite and
// within cholTol of the reference. The comparisons are written so that a
// NaN fails them.
func checkFactor(got, ref map[[2]int32][]float64) error {
	for k, blk := range got {
		for _, x := range blk {
			if !finite(x) {
				return fmt.Errorf("factor block (%d,%d) holds %v", k[0], k[1], x)
			}
		}
	}
	diff, err := cholesky.MaxBlockDiff(got, ref)
	if err != nil {
		return err
	}
	if !(diff <= cholTol) {
		return fmt.Errorf("factor differs from the serial reference by %g (tolerance %g)", diff, cholTol)
	}
	return nil
}

// checkBodies accepts an evolved body set only if it matches the serial
// run within bhTol; bodyError rejects non-finite positions and velocities.
func checkBodies(got, want []octlib.Body) error {
	diff, err := bodyError(got, want)
	if err != nil {
		return err
	}
	if !(diff <= bhTol) {
		return fmt.Errorf("bodies differ from the serial run by %g (tolerance %g)", diff, bhTol)
	}
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// workerMain is the worker side: workerSolves+1 solves of the workload,
// the first of them warm-up.
func (r *run) workerMain(wl, refPath string) error {
	app, kind, err := workloadApp(wl)
	if err != nil {
		return err
	}
	var solve solver
	if app == "cholesky" {
		if solve, err = r.cholSolver(refPath); err != nil {
			return err
		}
	} else {
		solve = r.bhSolver()
	}
	var b batch
	for i := 0; i <= workerSolves; i++ {
		sd, bd, err := solve(kind)
		b.Attempted++
		if err != nil {
			b.Failed++
			b.Problems = append(b.Problems, err.Error())
			continue
		}
		if i > 0 {
			b.Solves = append(b.Solves, ms(sd))
			b.Boots = append(b.Boots, ms(bd))
		}
	}
	b.PeakMiB = peakRSSMiB()
	return json.NewEncoder(os.Stdout).Encode(b)
}

func writeFactor(path string, l map[[2]int32][]float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := cholesky.WriteL(f, l); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readFactor(path string) (map[[2]int32][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return cholesky.ReadL(f)
}

// bhParams is the Barnes-Hut configuration: one step, θ=1.0.
var bhParams = barneshut.Params{Steps: 1, Theta: 1.0}

// bodyError is the largest absolute position or velocity difference
// between two body sets, matched by ID.
func bodyError(got, want []octlib.Body) (float64, error) {
	if len(got) != len(want) {
		return 0, fmt.Errorf("%d bodies, want %d", len(got), len(want))
	}
	byID := make(map[int32]*octlib.Body, len(want))
	for i := range want {
		byID[want[i].ID] = &want[i]
	}
	worst := 0.0
	for _, b := range got {
		w, ok := byID[b.ID]
		if !ok {
			return 0, fmt.Errorf("body %d not in the reference", b.ID)
		}
		for k := 0; k < 3; k++ {
			if !finite(b.Pos[k]) || !finite(b.Vel[k]) {
				return 0, fmt.Errorf("body %d has position %v and velocity %v", b.ID, b.Pos, b.Vel)
			}
			worst = math.Max(worst, math.Max(math.Abs(b.Pos[k]-w.Pos[k]), math.Abs(b.Vel[k]-w.Vel[k])))
		}
	}
	return worst, nil
}
