package netfab

import (
	"context"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"samsys/internal/fabric"
	"samsys/internal/machine"
	"samsys/internal/pack"
)

// linkGoroutines counts live data-link reader goroutines: the dialer's
// ackLoop and the acceptor's readLoop of every connection.
func linkGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	s := string(buf)
	return strings.Count(s, "netfab.(*Fab).ackLoop") + strings.Count(s, "netfab.(*Fab).readLoop")
}

// TestLocalClusterLeavesNoLinkGoroutines runs many short loopback
// clusters and checks that every data link is torn down with its
// cluster: a writer that leaves its connection open strands the link's
// ackLoop and the peer's readLoop for the life of the process.
func TestLocalClusterLeavesNoLinkGoroutines(t *testing.T) {
	base := linkGoroutines()
	for i := 0; i < 20; i++ {
		cl, err := NewLocal(machine.CM5, 2)
		if err != nil {
			t.Fatal(err)
		}
		cl.SetHandler(func(fabric.Ctx, fabric.Message) {})
		if err := cl.Run(func(c fabric.Ctx) {
			c.Send(1-c.Node(), 8, pack.Ints{i})
		}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := linkGoroutines()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d ackLoop/readLoop goroutines outlived their clusters (baseline %d)", n-base, base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDialRetryCancel pins the abort bound on a lazy dial to a dead
// rank: cancelling the dial context ends the retry loop at once, not at
// the dial deadline.
func TestDialRetryCancel(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens here any more: every attempt is refused
	o := Options{}.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := dialRetry(ctx, addr, time.Now().Add(30*time.Second), o.DialBackoff, o.DialBackoffMax)
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond) // let it reach the backoff loop
	cancel()
	cancelled := time.Now()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("dial to a closed port succeeded")
		}
		if d := time.Since(cancelled); d > 100*time.Millisecond {
			t.Errorf("dial returned %v after cancel, want within 100ms", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("dial ignored cancellation")
	}
}

// TestRedialQuietOnShutdown pins the end-of-run race behind a flaky
// cross-process test: a peer exits after the all-done barrier, this
// rank's writer sees the link drop and redials, and this rank's own
// shutdown then cancels the dial. That cancellation is the end of the
// run, not a lost link, so it must leave no fatal error behind.
func TestRedialQuietOnShutdown(t *testing.T) {
	cl, err := NewLocal(machine.CM5, 2, WithDialBackoff(time.Hour), WithLinkRetry(2*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	f := cl.Fab(0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f.addrs[1] = ln.Addr().String()
	ln.Close() // the peer is gone: every dial is refused
	p := &peer{dst: 1, out: make(chan outFrame, 1), notify: make(chan struct{}, 1)}
	var unacked []outFrame
	redialed := make(chan struct{})
	go func() {
		f.redial(p, &unacked)
		close(redialed)
	}()
	// Shut down only once the redial is inside dialRetry, where the
	// cancellation lands.
	deadline := time.Now().Add(5 * time.Second)
	for !stackHas("netfab.dialRetry") {
		if time.Now().After(deadline) {
			t.Fatal("redial never reached dialRetry")
		}
		time.Sleep(time.Millisecond)
	}
	f.shutdown()
	cl.Fab(1).shutdown()
	select {
	case <-redialed:
	case <-time.After(5 * time.Second):
		t.Fatal("redial ignored shutdown")
	}
	if err := f.err(); err != nil {
		t.Fatalf("shutdown during a redial recorded a fatal error: %v", err)
	}
}

// stackHas reports whether any goroutine's stack mentions fn.
func stackHas(fn string) bool {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Contains(string(buf[:n]), fn)
		}
		buf = make([]byte, 2*len(buf))
	}
}
