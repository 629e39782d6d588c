package netfab

import (
	"fmt"
	"testing"

	"samsys/internal/core"
	"samsys/internal/fabric"
	"samsys/internal/fabric/fabtest"
	"samsys/internal/machine"
	"samsys/internal/pack"
	"samsys/internal/stats"
	"samsys/internal/trace"
	"samsys/internal/wire"
)

// TestConformance runs the shared fabric contract suite against a loopback
// TCP cluster: every message crosses the full wire path (encode, frame,
// batch, socket, decode).
func TestConformance(t *testing.T) {
	fabtest.Run(t, func(n int) (fabric.Fabric, error) {
		cl, err := NewLocal(machine.CM5, n)
		if err != nil {
			return nil, err
		}
		return cl, nil
	})
}

// TestChaos runs the fault-injection conformance matrix over real TCP:
// scheduled delays hold sends, scheduled resets sever live connections
// mid-burst, and the seq/ack resend machinery must keep delivery
// exactly-once, in order, with results identical to the fault-free run.
func TestChaos(t *testing.T) {
	fabtest.RunChaos(t, func(n int) (fabric.Fabric, error) {
		// A small ack batch keeps the unacked resend window non-trivial
		// at reset time without needing huge bursts.
		cl, err := NewLocalOpts(machine.CM5, n, Options{AckEvery: 8})
		if err != nil {
			return nil, err
		}
		return cl, nil
	})
}

// TestSAMOnNetfab runs a real SAM program — accumulator updates under
// barriers — across TCP nodes. Payloads here are pack items and core
// protocol messages, all wire-registered.
func TestSAMOnNetfab(t *testing.T) {
	const n = 4
	cl, err := NewLocal(machine.CM5, n)
	if err != nil {
		t.Fatal(err)
	}
	w := core.NewWorld(cl, core.Options{})
	results := make([]int64, n)
	err = w.Run(func(c *core.Ctx) {
		acc := core.N1(1, 1)
		if c.Node() == 0 {
			c.CreateAccum(acc, pack.Ints{0})
		}
		c.Barrier()
		for i := 0; i < 10; i++ {
			a := c.BeginUpdateAccum(acc).(pack.Ints)
			a[0]++
			c.EndUpdateAccum(acc)
		}
		c.Barrier()
		if c.Node() == 0 {
			a := c.BeginUpdateAccum(acc).(pack.Ints)
			results[0] = int64(a[0])
			c.EndUpdateAccum(acc)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0] != n*10 {
		t.Errorf("accumulator = %d, want %d", results[0], n*10)
	}
}

// TestSAMValuesAndTasksOnNetfab exercises values, task spawning and the
// termination protocol over TCP.
func TestSAMValuesAndTasksOnNetfab(t *testing.T) {
	const n = 3
	cl, err := NewLocal(machine.IPSC, n)
	if err != nil {
		t.Fatal(err)
	}
	w := core.NewWorld(cl, core.Options{})
	processed := make([]int64, n)
	err = w.Run(func(c *core.Ctx) {
		val := core.N1(2, 7)
		if c.Node() == 0 {
			c.CreateValue(val, pack.Ints{99}, core.UsesUnlimited)
			for i := 0; i < 12; i++ {
				c.SpawnTask(i%n, taskProbe{int32(i)}, 8)
			}
		}
		for {
			_, ok := c.NextTask()
			if !ok {
				break
			}
			v := c.BeginUseValue(val).(pack.Ints)
			if v[0] != 99 {
				t.Errorf("value = %d", v[0])
			}
			c.EndUseValue(val)
			processed[c.Node()]++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, p := range processed {
		total += p
	}
	if total != 12 {
		t.Errorf("processed %d tasks, want 12", total)
	}
}

// TestTraceCheckersOnLoopback attaches the PR-1 online protocol checker to
// a loopback TCP run: per-link FIFO and message conservation must hold on
// the real wire path, and Finish must see no undelivered messages
// (quiescent application + netfab's tail drain).
func TestTraceCheckersOnLoopback(t *testing.T) {
	const n = 3
	cl, err := NewLocal(machine.CM5, n)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.New()
	rec.SetCapacity(1 << 18)
	var violations []string
	ck := trace.NewChecker(func(format string, args ...any) {
		violations = append(violations, fmt.Sprintf(format, args...))
	})
	ck.Attach(rec)
	cl.SetTracer(rec)
	w := core.NewWorld(cl, core.Options{Trace: rec})
	err = w.Run(func(c *core.Ctx) {
		acc := core.N1(3, 3)
		val := core.N1(4, 4)
		if c.Node() == 0 {
			c.CreateAccum(acc, pack.Ints{0})
			c.CreateValue(val, pack.Float64s{2.5}, core.UsesUnlimited)
		}
		c.Barrier()
		for i := 0; i < 5; i++ {
			a := c.BeginUpdateAccum(acc).(pack.Ints)
			a[0]++
			c.EndUpdateAccum(acc)
			v := c.BeginUseValue(val).(pack.Float64s)
			if v[0] != 2.5 {
				t.Errorf("value = %v", v[0])
			}
			c.EndUseValue(val)
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Err(); err != nil {
		t.Fatalf("online checker: %v (all: %v)", err, ck.Violations())
	}
	if err := ck.Finish(); err != nil {
		t.Fatalf("checker finish: %v", err)
	}
	if len(violations) > 0 {
		t.Fatalf("violations: %v", violations)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("recorder dropped %d events; raise capacity", rec.Dropped())
	}
	var sends, delivers int
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case trace.EvMsgSend:
			sends++
		case trace.EvMsgDeliver:
			delivers++
		}
	}
	if sends == 0 || delivers == 0 {
		t.Fatalf("expected transport events, got %d sends / %d delivers", sends, delivers)
	}
	if sends != delivers {
		t.Errorf("message conservation: %d sends vs %d delivers", sends, delivers)
	}
}

// TestJoinValidation covers configuration errors.
func TestJoinValidation(t *testing.T) {
	if _, err := Join(Config{Rank: 0, N: 0}); err == nil {
		t.Error("N=0 accepted")
	}
	if _, err := Join(Config{Rank: 2, N: 2}); err == nil {
		t.Error("rank out of range accepted")
	}
	if _, err := Join(Config{Rank: 1, N: 2}); err == nil {
		t.Error("missing rendezvous accepted")
	}
}

// taskProbe is this test's task payload; tasks travel inside sam.task
// messages as self-described values, so the type must be wire-registered.
type taskProbe struct{ i int32 }

func init() {
	wire.Register("netfabtest.task",
		func(e *wire.Encoder, t taskProbe) { e.Varint(int64(t.i)) },
		func(d *wire.Decoder) taskProbe { return taskProbe{i: d.Int32()} })
}

// TestRunTwiceFails mirrors the other fabrics' contract.
func TestRunTwiceFails(t *testing.T) {
	cl, err := NewLocal(machine.CM5, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetHandler(func(fabric.Ctx, fabric.Message) {})
	if err := cl.Run(func(fabric.Ctx) {}); err != nil {
		t.Fatal(err)
	}
	if err := cl.fabs[0].Run(func(fabric.Ctx) {}); err == nil {
		t.Error("second Run should fail")
	}
}

// TestChargeAndElapsed pins local accounting on a single-node cluster.
func TestChargeAndElapsed(t *testing.T) {
	cl, err := NewLocal(machine.CM5, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetHandler(func(fabric.Ctx, fabric.Message) {})
	if err := cl.Run(func(c fabric.Ctx) {
		c.Charge(stats.App, 123456)
	}); err != nil {
		t.Fatal(err)
	}
	if got := cl.Report()[0].Acct[stats.App]; got != 123456 {
		t.Errorf("accounted %v, want 123456", got)
	}
	if cl.Elapsed() <= 0 {
		t.Error("no elapsed time")
	}
}
