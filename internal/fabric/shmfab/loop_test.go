package shmfab

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"samsys/internal/fabric"
	"samsys/internal/machine"
	"samsys/internal/pack"
	"samsys/internal/stats"
	"samsys/internal/trace"
)

// runWithin runs the cluster and fails the test if Run has not returned
// by the deadline: a lost doorbell wakeup parks a rank forever, so a
// hang is the symptom these tests look for.
func runWithin(t *testing.T, f *Cluster, d time.Duration, app func(fabric.Ctx)) {
	t.Helper()
	errc := make(chan error, 1)
	go func() { errc <- f.Run(app) }()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(d):
		t.Fatalf("Run did not return within %v (lost wakeup?)", d)
	}
}

// TestDoorbellPingPong stresses the park/doorbell handshake: rank 0
// bounces 10k pings off the other ranks, waiting in Event.Wait for each
// pong, while the other ranks serve from the post-app drain. Every 64th
// ping waits until its target has parked, so the doorbell path runs
// even when one CPU serializes everything. A wakeup lost between a
// rank's last emptiness check and its park hangs the run.
func TestDoorbellPingPong(t *testing.T) {
	skipWithoutShm(t)
	const trips = 10000
	for _, procs := range []int{1, 4} {
		for _, n := range []int{2, 4} {
			t.Run(fmt.Sprintf("procs%d/n%d", procs, n), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				f, err := New(machine.CM5, n)
				if err != nil {
					t.Fatal(err)
				}
				rec := trace.New()
				rec.SetCapacity(1 << 20)
				f.SetTracer(rec)
				var pong fabric.Event
				got := 0
				f.SetHandler(func(hc fabric.Ctx, m fabric.Message) {
					if hc.Node() != 0 {
						hc.Send(0, 8, m.Payload)
						return
					}
					got++
					pong.Signal()
				})
				runWithin(t, f, 60*time.Second, func(c fabric.Ctx) {
					if c.Node() != 0 {
						return
					}
					for i := 0; i < trips; i++ {
						dst := 1 + i%(n-1)
						if i%64 == 0 {
							// Let dst spin out and park, so this ping
							// must ring its doorbell.
							for !f.ranks[dst].parked.Load() {
								runtime.Gosched()
							}
						}
						pong = c.NewEvent()
						c.Send(dst, 8, pack.Ints{i})
						pong.Wait(c, stats.Idle)
					}
				})
				if got != trips {
					t.Errorf("%d pongs, want %d", got, trips)
				}
				wakes := 0
				for _, ev := range rec.Events() {
					if ev.Kind == trace.EvShmWake {
						wakes++
					}
				}
				if wakes == 0 {
					t.Error("no rank ever parked and woke to lane data; the doorbell went untested")
				}
			})
		}
	}
}

// TestTailDrainConservation sends a chain of replies from each rank's
// very last send: every hop is handled after some or all app bodies
// have returned, so only exact termination — not a quiet window — can
// see the chain through. The checker must find every message delivered.
func TestTailDrainConservation(t *testing.T) {
	skipWithoutShm(t)
	for _, n := range []int{2, 3} {
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			f, err := New(machine.CM5, n)
			if err != nil {
				t.Fatal(err)
			}
			rec := trace.New()
			rec.SetCapacity(1 << 16)
			var violations []string
			ck := trace.NewChecker(func(format string, args ...any) {
				violations = append(violations, fmt.Sprintf(format, args...))
			})
			ck.Attach(rec)
			f.SetTracer(rec)
			const hops = 12
			delivered := make([]int, n) // per rank, touched only by its goroutine
			f.SetHandler(func(hc fabric.Ctx, m fabric.Message) {
				delivered[hc.Node()]++
				if left := m.Payload.(pack.Ints)[0]; left > 0 {
					// (node+left)%n includes the rank itself, so the chain
					// also crosses the self link.
					hc.Send((hc.Node()+left)%n, 8, pack.Ints{left - 1})
				}
			})
			runWithin(t, f, 30*time.Second, func(c fabric.Ctx) {
				c.Send((c.Node()+1)%n, 8, pack.Ints{hops})
			})
			total := 0
			for _, d := range delivered {
				total += d
			}
			if want := n * (hops + 1); total != want {
				t.Errorf("delivered %d messages, want %d", total, want)
			}
			if err := ck.Finish(); err != nil {
				t.Errorf("checker: %v", err)
			}
			if len(violations) > 0 {
				t.Errorf("violations: %v", violations)
			}
		})
	}
}

// TestRunLeavesNoGoroutines pins the goroutine budget: Run starts
// exactly one goroutine per rank, and all of them are gone when it
// returns.
func TestRunLeavesNoGoroutines(t *testing.T) {
	skipWithoutShm(t)
	const n = 4
	f, err := New(machine.CM5, n)
	if err != nil {
		t.Fatal(err)
	}
	f.SetHandler(func(fabric.Ctx, fabric.Message) {})
	base := runtime.NumGoroutine()
	during := 0
	runWithin(t, f, 30*time.Second, func(c fabric.Ctx) {
		for d := 0; d < n; d++ {
			c.Send(d, 8, pack.Ints{d})
		}
		if c.Node() == 0 {
			// The test's Run-caller goroutine is the only extra one.
			during = runtime.NumGoroutine() - base - 1
		}
	})
	if during != n {
		t.Errorf("Run runs %d goroutines, want %d (one per rank)", during, n)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlived Run", runtime.NumGoroutine()-base)
		}
		time.Sleep(time.Millisecond)
	}
}
