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
