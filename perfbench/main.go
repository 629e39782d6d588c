// Command perfbench is the repository's benchmark. It runs one workload —
// cholesky_<fabric>, barneshut or store — for a fixed time, verifies every output,
// and prints one JSON result line. With -trace 0 the line carries the
// end-to-end metrics, measured untraced; with -trace 1 it carries the
// per-layer metrics of a separate traced run (see layers.go).
//
//	go run . -workload cholesky_shm -seed 1 -seconds 30 -trace 0
//
// NOTES.md explains the workloads, the metrics and the layers they
// explain. run.py builds this program inside a checkout and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries the settings of one invocation and collects its outcome.
type run struct {
	seed     int64
	seconds  time.Duration
	ranks    int
	workdir  string // scratch directory inside the checkout
	shmDir   string // segment directory for the shm fabrics
	res      result
	problems []string // failed checks, printed to stderr
}

func (r *run) set(name, unit string, v float64) { r.res.Metrics[name] = metric{Value: v, Unit: unit} }

// fail records a failed check; any failure makes the result incorrect.
func (r *run) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// count records one attempted operation and whether it failed.
func (r *run) count(failed bool) {
	r.res.Attempted++
	if failed {
		r.res.Failed++
	}
}

func main() {
	workload := flag.String("workload", "", "cholesky_{gofab,shm,net,hybrid}, barneshut or store")
	seed := flag.Int64("seed", 1, "seed all inputs derive from")
	seconds := flag.Int("seconds", 20, "measured seconds")
	traced := flag.Int("trace", 0, "1: run the traced per-layer suite instead of the timed run")
	workdir := flag.String("workdir", ".bench_build", "directory for shm segments and span files")
	worker := flag.String("worker", "", "internal: run one worker batch of this workload")
	refPath := flag.String("ref", "", "internal: worker's reference factor file")
	flag.Parse()

	r := &run{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		ranks:   max(2, min(runtime.NumCPU(), 8)), // probes need two ranks
		res:     result{Metrics: map[string]metric{}},
		workdir: *workdir,
	}
	r.shmDir = filepath.Join(*workdir, fmt.Sprintf("shm-%d", os.Getpid()))
	if err := os.MkdirAll(r.shmDir, 0o755); err != nil {
		fatal("%v", err)
	}
	if *worker != "" {
		err := r.workerMain(*worker, *refPath)
		os.RemoveAll(r.shmDir)
		if err != nil {
			fatal("worker: %v", err)
		}
		return
	}

	host := startHost()
	var err error
	switch {
	case *traced == 1:
		err = r.layers(*workload)
	case *workload == "store":
		err = r.store()
	default:
		err = r.appWorkload(*workload)
	}
	if err != nil {
		os.RemoveAll(r.shmDir)
		fatal("%s: %v", *workload, err)
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	os.RemoveAll(r.shmDir)
	r.res.Correct = len(r.problems) == 0 && r.res.Failed == 0 && r.res.Attempted > 0
	fmt.Printf("fail_ratio=%g (%d of %d)\n", float64(r.res.Failed)/float64(max(r.res.Attempted, 1)), r.res.Failed, r.res.Attempted)
	hb, _ := json.Marshal(host.finish())
	fmt.Printf("host %s\n", hb)
	b, err := json.Marshal(r.res)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(b))
	if !r.res.Correct {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
