package netfab

import (
	"fmt"
	"net"
	"runtime"
	"strings"
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
func runWithin(t *testing.T, cl *Cluster, d time.Duration, app func(fabric.Ctx)) {
	t.Helper()
	errc := make(chan error, 1)
	go func() { errc <- cl.Run(app) }()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(d):
		t.Fatalf("Run did not return within %v (lost wakeup?)", d)
	}
}

// parked reports whether rank's node loop is parked, read from the flag
// on its lane from src.
func (cl *Cluster) parked(rank, src int) bool {
	for _, in := range cl.fabs[rank].lanes {
		if in.src == src {
			return in.lane.Parked()
		}
	}
	return false
}

// TestHybridDoorbellPingPong stresses the park/doorbell handshake of the
// hybrid node loop: rank 0 bounces 10k pings off the other ranks over shm
// lanes, waiting in Event.Wait for each pong, while the other ranks serve
// from the post-app drain. Every 64th ping waits until its target has
// parked, so the doorbell path runs even when one CPU serializes
// everything. A wakeup lost between a rank's last emptiness check and
// its park hangs the run.
func TestHybridDoorbellPingPong(t *testing.T) {
	skipWithoutShm(t)
	const trips = 10000
	for _, procs := range []int{1, 2, 4} {
		for _, n := range []int{2, 4} {
			t.Run(fmt.Sprintf("procs%d/n%d", procs, n), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				cl, err := NewLocal(machine.CM5, n, WithShm(ShmAuto), WithHosts(sameHost(n)))
				if err != nil {
					t.Fatal(err)
				}
				rec := trace.New()
				rec.SetCapacity(1 << 20)
				cl.SetTracer(rec)
				var pong fabric.Event
				got := 0
				cl.SetHandler(func(hc fabric.Ctx, m fabric.Message) {
					if hc.Node() != 0 {
						hc.Send(0, 8, m.Payload)
						return
					}
					got++
					pong.Signal()
				})
				runWithin(t, cl, 60*time.Second, func(c fabric.Ctx) {
					if c.Node() != 0 {
						return
					}
					for i := 0; i < trips; i++ {
						dst := 1 + i%(n-1)
						if i%64 == 0 {
							// Let dst spin out and park, so this ping
							// must ring its doorbell.
							for !cl.parked(dst, 0) {
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

// TestHybridRingLostDoorbellFails checks that a wake which cannot be
// delivered fails the run instead of hanging it: a parked rank has no
// timeout to fall back on. Rank 1 closes its doorbell socket and parks
// in the post-app drain; rank 0's send to it finds the parked flag,
// rings the address nobody reads any more, and both ranks' Run must
// return the error.
func TestHybridRingLostDoorbellFails(t *testing.T) {
	skipWithoutShm(t)
	cl, err := NewLocal(machine.CM5, 2, WithShm(ShmAuto), WithHosts(sameHost(2)))
	if err != nil {
		t.Fatal(err)
	}
	cl.SetHandler(func(fabric.Ctx, fabric.Message) {})
	errc := make(chan error, 1)
	go func() {
		errc <- cl.Run(func(c fabric.Ctx) {
			if c.Node() == 1 {
				cl.fabs[1].bellConn.Close()
				return
			}
			for !cl.parked(1, 0) {
				runtime.Gosched()
			}
			c.Send(1, 8, pack.Ints{1})
		})
	}()
	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), "doorbell of rank 1") {
			t.Fatalf("Run returned %v, want the failed doorbell write", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run hung on a wake that could not be delivered")
	}
}

// TestHybridParkHoldsNoFutex pins where a parked hybrid rank waits: in
// its node loop's select, with the doorbell read in the netpoller, and
// never in a lane futex wait — a goroutine blocked in that raw syscall
// holds a P and starves the timers and the TCP control plane.
func TestHybridParkHoldsNoFutex(t *testing.T) {
	skipWithoutShm(t)
	const n = 3
	cl, err := NewLocal(machine.CM5, n, WithShm(ShmAuto), WithHosts(sameHost(n)))
	if err != nil {
		t.Fatal(err)
	}
	cl.SetHandler(func(fabric.Ctx, fabric.Message) {})
	var stacks string
	runWithin(t, cl, 30*time.Second, func(c fabric.Ctx) {
		if c.Node() != 0 {
			return
		}
		for rank := 1; rank < n; rank++ {
			for !cl.parked(rank, 0) {
				runtime.Gosched()
			}
		}
		buf := make([]byte, 1<<20)
		stacks = string(buf[:runtime.Stack(buf, true)])
	})
	if strings.Contains(stacks, "shmfab.futexWait") {
		t.Errorf("a goroutine waits on a lane futex while the ranks are parked:\n%s", stacks)
	}
	if got := strings.Count(stacks, "netfab.(*ctx).park"); got != n-1 {
		t.Errorf("%d goroutines in the park select, want %d (one per idle rank)", got, n-1)
	}
}

// TestHybridRunLeavesNothingOpen checks that a hybrid Run cleans up after
// itself: every goroutine the cluster started is gone, and every rank's
// doorbell socket is closed, so its address can be bound again.
func TestHybridRunLeavesNothingOpen(t *testing.T) {
	skipWithoutShm(t)
	const n = 4
	base := runtime.NumGoroutine()
	cl, err := NewLocal(machine.CM5, n, WithShm(ShmAuto), WithHosts(altHosts(n)))
	if err != nil {
		t.Fatal(err)
	}
	cl.SetHandler(func(fabric.Ctx, fabric.Message) {})
	runWithin(t, cl, 30*time.Second, func(c fabric.Ctx) {
		for d := 0; d < n; d++ {
			c.Send(d, 8, pack.Ints{d})
		}
	})
	for rank, f := range cl.fabs {
		if f.bellConn != nil {
			t.Errorf("rank %d: doorbell still open after Run", rank)
		}
		name := bellName(f.bootID, rank)
		c, err := net.ListenUnixgram("unixgram", &net.UnixAddr{Name: name, Net: "unixgram"})
		if err != nil {
			t.Errorf("rank %d: doorbell address still bound after Run: %v", rank, err)
			continue
		}
		c.Close()
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines outlived Run:\n%s", runtime.NumGoroutine()-base,
				buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSpinBudget pins when a rank spins long before parking: only while
// every rank on its host can run at once.
func TestSpinBudget(t *testing.T) {
	for _, tc := range []struct{ colocated, procs, want int }{
		{1, 1, longSpin},
		{2, 2, longSpin},
		{2, 8, longSpin},
		{2, 1, shortSpin},
		{4, 2, shortSpin},
	} {
		if got := spinBudget(tc.colocated, tc.procs); got != tc.want {
			t.Errorf("spinBudget(%d, %d) = %d, want %d", tc.colocated, tc.procs, got, tc.want)
		}
	}
}
