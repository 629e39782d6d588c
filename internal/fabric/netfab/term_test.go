package netfab

import (
	"fmt"
	"testing"
	"time"

	"samsys/internal/fabric"
	"samsys/internal/fabric/faultfab"
	"samsys/internal/machine"
	"samsys/internal/pack"
	"samsys/internal/trace"
)

// termFabrics are the netfab configurations the termination tests run
// on: all links TCP, a mix of TCP and shm lanes, and all links shm.
var termFabrics = []struct {
	name string
	opts func(n int) []Option
}{
	{"net", func(int) []Option { return nil }},
	{"hybrid", func(n int) []Option { return []Option{WithShm(ShmAuto), WithHosts(altHosts(n))} }},
	{"shm", func(n int) []Option { return []Option{WithShm(ShmAuto), WithHosts(sameHost(n))} }},
}

const (
	chainRanks = 3
	chainHops  = 12
	// Rank 1's chain runs longLead hops longer than the others, and rank 1
	// stalls in the handler of its next-to-last hop for slowWait: longer
	// than the fixed quiet window netfab used to end Run with, while that
	// hop is the only message left anywhere. The other ranks sit idle, the
	// counts read the same wave after wave, and only a rank that counts a
	// message handled after its handler has returned keeps the run alive
	// for the last hop.
	longLead = 6
	slowWait = 8 * time.Millisecond
)

// chainLen is the number of hops in the chain rank starts.
func chainLen(rank int) int {
	if rank == 1 {
		return chainHops + longLead
	}
	return chainHops
}

// runChains starts one reply chain per rank from the rank's very last
// send: every hop goes to the next rank round the ring, and all but the
// first run after the app bodies have returned. It checks, through the
// trace checker, that every hop was delivered exactly once and returns
// the fault rules that fired.
func runChains(t *testing.T, opts []Option, sched faultfab.Schedule) []faultfab.Applied {
	t.Helper()
	inner, err := NewLocal(machine.CM5, chainRanks, opts...)
	if err != nil {
		t.Fatal(err)
	}
	f := faultfab.New(inner, sched, faultfab.Options{})
	rec := trace.New()
	rec.SetCapacity(1 << 16)
	var violations []string
	ck := trace.NewChecker(func(format string, args ...any) {
		violations = append(violations, fmt.Sprintf(format, args...))
	})
	ck.Attach(rec)
	f.SetTracer(rec)
	delivered := make([]int, chainRanks) // per rank, touched only by its goroutine
	f.SetHandler(func(hc fabric.Ctx, m fabric.Message) {
		delivered[hc.Node()]++
		left := m.Payload.(pack.Ints)[0]
		if left == 1 && hc.Node() == 1 {
			// Only rank 1's own chain reaches it with one hop left.
			time.Sleep(slowWait)
		}
		if left > 0 {
			hc.Send((hc.Node()+1)%chainRanks, 8, pack.Ints{left - 1})
		}
	})
	errc := make(chan error, 1)
	go func() {
		errc <- f.Run(func(c fabric.Ctx) {
			c.Send((c.Node()+1)%chainRanks, 8, pack.Ints{chainLen(c.Node())})
		})
	}()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return: termination never detected")
	}
	total, want := 0, 0
	for rank, d := range delivered {
		total += d
		want += chainLen(rank) + 1
	}
	if total != want {
		t.Errorf("delivered %d messages, want %d", total, want)
	}
	if err := ck.Finish(); err != nil {
		t.Errorf("checker: %v", err)
	}
	if len(violations) > 0 {
		t.Errorf("violations: %v", violations)
	}
	return f.Applied()
}

// TestTerminationReplyChains runs reply chains that outlive every app
// body by many hops and end in a long stall: Run must end only once the
// last hop has been handled, on every link mix.
func TestTerminationReplyChains(t *testing.T) {
	for _, fc := range termFabrics {
		t.Run(fc.name, func(t *testing.T) {
			if fc.name != "net" {
				skipWithoutShm(t)
			}
			runChains(t, fc.opts(chainRanks), faultfab.Schedule{})
		})
	}
}

// TestTerminationTailResets severs links while the reply chains run in
// the tail, after every app body has returned: a TCP link must redial
// and resend its window, an shm lane reinitializes in place, and either
// way the termination waves must count each message once — a resent
// duplicate is suppressed before it is handled — and see every hop
// through.
func TestTerminationTailResets(t *testing.T) {
	// Each link carries 15 sends; all but the first come from handlers,
	// and these indices fall many hops after the app bodies returned.
	sched := faultfab.Schedule{Resets: []faultfab.Reset{
		{Src: 0, Dst: 1, Index: 7},
		{Src: 0, Dst: 1, Index: 10},
		{Src: 1, Dst: 2, Index: 9},
		{Src: 2, Dst: 0, Index: 8},
	}}
	for _, fc := range termFabrics {
		t.Run(fc.name, func(t *testing.T) {
			if fc.name != "net" {
				skipWithoutShm(t)
			}
			applied := runChains(t, fc.opts(chainRanks), sched)
			fired := 0
			for _, a := range applied {
				if a.Kind == "reset" && !a.Skipped {
					fired++
				}
			}
			if fired != len(sched.Resets) {
				t.Errorf("%d of %d tail resets fired: %v", fired, len(sched.Resets), applied)
			}
		})
	}
}

// TestTerminatedNeedsAgreeingWaves replays the reading that makes one
// balanced wave unsafe. Ranks 0, 1, 2 are read in order. Rank 2 reported
// x sent to rank 0 in the first wave. Then rank 0 is read (nothing yet),
// handles x and sends y to rank 1 and z to rank 2; rank 1 is read before
// y arrives and starts a long handler for it; rank 2 handles z and is
// read. That wave balances — it misses x's handling and y's send, and
// counts z's handling in place of x's — yet rank 1 is still busy and may
// send. Only a second wave reading the same counts proves quiescence.
func TestTerminatedNeedsAgreeingWaves(t *testing.T) {
	first := []counts{{0, 0}, {0, 0}, {1, 0}}
	second := []counts{{0, 0}, {0, 0}, {1, 1}}
	if terminated(first, second) {
		t.Error("a balanced wave that disagrees with the one before it ended the run")
	}
	if !terminated(second, second) {
		t.Error("two agreeing balanced waves did not end the run")
	}
	if terminated([]counts{{2, 1}, {1, 1}}, []counts{{2, 1}, {1, 1}}) {
		t.Error("agreeing waves with a message in flight ended the run")
	}
}
