package shmfab

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"samsys/internal/fabric"
	"samsys/internal/machine"
	"samsys/internal/sim"
	"samsys/internal/stats"
	"samsys/internal/trace"
)

// spinPolls is how many empty sweeps an idle rank makes, yielding
// between them, before it parks on its doorbell.
const spinPolls = 64

// inMsg is a queued self-send plus its sequence number on the self link.
type inMsg struct {
	m   fabric.Message
	seq int64
}

// Cluster is an in-process cluster whose ranks communicate through real
// mapped shm segments. One goroutine per rank runs the application and,
// inside every fabric call, polls the rank's inbound lanes round-robin and
// runs the handler on each frame it finds: the polling message service of
// the CM-5 runtime, so a node's app and handler code never overlap and no
// relay goroutine stands between a lane and its rank. An idle rank spins
// briefly, then parks on an in-process doorbell that a sender rings after
// its ring write. Encode, ring write and in-place arena decode all happen
// here where the race detector and the conformance suite can see them.
type Cluster struct {
	n        int
	prof     machine.Profile
	opts     Options
	handler  fabric.Handler
	counters []stats.Counters
	acct     [][]int64 // [node][cat] nanoseconds, guarded by node goroutine

	send  [][]*SendLane // [src][dst], nil on the diagonal
	recv  [][]*RecvLane // [dst][src], nil on the diagonal
	ranks []*ctx

	// Exact termination: unhandled counts messages sent and not yet fully
	// handled, running counts app bodies still executing. Once both are
	// zero no message can ever be sent again; whichever decrement makes
	// that so closes quiet and releases the draining ranks.
	unhandled atomic.Int64
	running   atomic.Int64
	quiet     chan struct{}
	quietOnce sync.Once

	start   time.Time
	elapsed sim.Time
	ran     bool

	fail     chan struct{} // closed on cluster-fatal error (injected kill)
	failOnce sync.Once
	failErr  error

	tr *trace.Recorder
}

// New creates an n-node shm cluster, creating and mapping the n*(n-1)
// lane segments up front.
func New(prof machine.Profile, n int, opts ...Option) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("shmfab: need at least one node, got %d", n)
	}
	if !mmapSupported {
		return nil, fmt.Errorf("shmfab: no mmap on this platform")
	}
	o := Options{}.Apply(opts...)
	f := &Cluster{
		n: n, prof: prof, opts: o,
		counters: make([]stats.Counters, n),
		acct:     make([][]int64, n),
		send:     make([][]*SendLane, n),
		recv:     make([][]*RecvLane, n),
		ranks:    make([]*ctx, n),
		quiet:    make(chan struct{}),
		fail:     make(chan struct{}),
	}
	id := fmt.Sprintf("c-%d-%d", os.Getpid(), laneSerial.Add(1))
	for i := 0; i < n; i++ {
		f.acct[i] = make([]int64, stats.NumCat)
		f.ranks[i] = &ctx{fab: f, node: i, bell: make(chan struct{}, 1)}
		f.send[i] = make([]*SendLane, n)
		f.recv[i] = make([]*RecvLane, n)
	}
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			path := LanePath(o.Dir, id, src, dst)
			sl, err := NewSendLane(path, o.RingBytes, o.ArenaBytes, o.InlineMax)
			if err != nil {
				f.closeLanes()
				return nil, fmt.Errorf("shmfab: lane %d->%d: %w", src, dst, err)
			}
			f.send[src][dst] = sl
			rl, err := OpenRecvLane(path)
			if err != nil {
				f.closeLanes()
				return nil, fmt.Errorf("shmfab: lane %d->%d open: %w", src, dst, err)
			}
			f.recv[dst][src] = rl
			f.ranks[dst].lanes = append(f.ranks[dst].lanes, inLane{src, rl})
			s, d := src, dst
			sl.OnSend = func(seq int64, size, bodyLen int, arenaCand bool) {
				if tr := f.tr; tr != nil {
					var a2 int64
					if arenaCand {
						a2 = 1
					}
					tr.Emit(trace.Event{Node: int32(s), Kind: trace.EvShmSend,
						Peer: int32(d), Size: int64(size), Aux: seq, Aux2: a2})
				}
			}
			sl.OnArena = func(bytes, liveBlocks int) {
				if tr := f.tr; tr != nil {
					tr.Emit(trace.Event{Node: int32(s), Kind: trace.EvShmArena,
						Peer: int32(d), Aux: int64(bytes), Aux2: int64(liveBlocks)})
				}
			}
		}
	}
	return f, nil
}

func (f *Cluster) closeLanes() {
	for _, row := range f.recv {
		for _, l := range row {
			if l != nil {
				l.Close()
			}
		}
	}
	for _, row := range f.send {
		for _, l := range row {
			if l != nil {
				l.Close()
			}
		}
	}
}

// N returns the node count.
func (f *Cluster) N() int { return f.n }

// Profile returns the machine profile used for accounting.
func (f *Cluster) Profile() machine.Profile { return f.prof }

// SetHandler installs the message handler.
func (f *Cluster) SetHandler(h fabric.Handler) { f.handler = h }

// Counters returns node i's counters. Safe to read after Run returns.
func (f *Cluster) Counters(node int) *stats.Counters { return &f.counters[node] }

// Elapsed returns the wall-clock duration of the run.
func (f *Cluster) Elapsed() sim.Time { return f.elapsed }

// SetTracer attaches an event recorder; events are stamped with wall time
// since Run started. Call before Run; pass nil to detach.
func (f *Cluster) SetTracer(r *trace.Recorder) {
	f.tr = r
	if r == nil {
		return
	}
	r.SetClock(func() sim.Time {
		if f.start.IsZero() {
			return 0
		}
		return sim.Time(time.Since(f.start))
	})
}

// fatalf records the first cluster-fatal error and releases everything
// blocked on the fabric: contexts panic with the error at their next
// fabric call, parked ranks wake through the fail channel.
func (f *Cluster) fatalf(format string, args ...any) {
	f.failOnce.Do(func() {
		f.failErr = fmt.Errorf(format, args...)
		close(f.fail)
	})
}

func (f *Cluster) failed() bool {
	select {
	case <-f.fail:
		return true
	default:
		return false
	}
}

// err returns the stored fatal error; only valid once failed() is true.
func (f *Cluster) err() error { return f.failErr }

// InjectKill fails the cluster as if the given rank's process had died:
// on shared memory there is no per-link connection to sever, so a dead
// rank is unrecoverable and the whole cluster aborts within a bounded
// time, exactly like netfab's frAbort propagation. Implements faultfab's
// Killer interface.
func (f *Cluster) InjectKill(rank int, reason string) bool {
	if rank < 0 || rank >= f.n {
		return false
	}
	f.fatalf("shmfab: rank %d killed: %s", rank, reason)
	return true
}

// InjectLinkReset reinitializes the src->dst lane in place. Shared memory
// has no connection state to lose, so a reset drops nothing — the fault
// fires for real (the epoch advances, the events are emitted) and the
// delivery guarantees are unchanged, which is precisely what the chaos
// matrix asserts. Implements faultfab's LinkResetter interface.
func (f *Cluster) InjectLinkReset(src, dst int) bool {
	if src < 0 || src >= f.n || dst < 0 || dst >= f.n || src == dst {
		return false
	}
	f.send[src][dst].Reset()
	if tr := f.tr; tr != nil {
		tr.Emit(trace.Event{Node: int32(src), Kind: trace.EvLinkDown, Peer: int32(dst), Aux: 1})
		tr.Emit(trace.Event{Node: int32(src), Kind: trace.EvLinkRedial, Peer: int32(dst), Aux: 1})
	}
	return true
}

// ReleasePayload returns item's arena block (if any) to its sending lane.
// Implements fabric.PayloadReleaser; a heap-allocated item matches no
// lane and falls through in a few pointer compares.
func (f *Cluster) ReleasePayload(node int, item any) {
	if node < 0 || node >= f.n {
		return
	}
	for src, l := range f.recv[node] {
		if src != node && l != nil && l.Release(item) {
			return
		}
	}
}

// Run launches one goroutine per rank and returns once every app body has
// returned and every message sent has been handled, or with the stored
// error after an injected kill.
func (f *Cluster) Run(app func(c fabric.Ctx)) error {
	if f.ran {
		return fmt.Errorf("shmfab: Run called twice")
	}
	f.ran = true
	f.start = time.Now()
	f.running.Store(int64(f.n))
	var wg sync.WaitGroup
	wg.Add(f.n)
	for _, c := range f.ranks {
		go func() {
			defer wg.Done()
			f.runRank(c, app)
		}()
	}
	wg.Wait()
	// No rank touches a lane any more, so the mappings can go.
	f.closeLanes()
	f.elapsed = sim.Time(time.Since(f.start))
	if f.failed() {
		return f.err()
	}
	return nil
}

// runRank runs the app body on c's rank, then serves messages until no
// message can arrive any more. The cluster-abort panic unwinds the rank
// quietly; any other panic is a genuine application bug and propagates.
func (f *Cluster) runRank(c *ctx, app func(fabric.Ctx)) {
	defer func() {
		if r := recover(); r != nil {
			if err, ok := r.(error); ok && f.failed() && err == f.err() {
				return
			}
			panic(r)
		}
	}()
	app(c)
	if f.running.Add(-1) == 0 && f.unhandled.Load() == 0 {
		f.quiesce()
	}
	c.serve(f.quiet)
}

// retire marks one message fully handled: its handler, and every send the
// handler made, is done.
func (f *Cluster) retire() {
	if f.unhandled.Add(-1) == 0 && f.running.Load() == 0 {
		f.quiesce()
	}
}

// quiesce releases the draining ranks. The two counters are updated and
// read in opposite orders by the app-exit and retire paths, so with
// sequentially consistent atomics at least one of them sees both at zero.
func (f *Cluster) quiesce() { f.quietOnce.Do(func() { close(f.quiet) }) }

// ring wakes rank dst if it has declared itself parked.
func (f *Cluster) ring(dst int) {
	if d := f.ranks[dst]; d.parked.Load() {
		select {
		case d.bell <- struct{}{}:
		default:
		}
	}
}

// Report returns the cost breakdown accumulated by Charge calls.
func (f *Cluster) Report() []stats.NodeReport {
	reports := make([]stats.NodeReport, f.n)
	for i := 0; i < f.n; i++ {
		r := stats.NodeReport{Node: i, Total: f.elapsed}
		for c := 0; c < stats.NumCat; c++ {
			r.Acct[c] = sim.Time(f.acct[i][c])
		}
		reports[i] = r
	}
	return reports
}

// ctx is one rank's execution context and node-loop state. Its methods
// run on the rank's goroutine; senders on other ranks touch only parked
// and bell.
type ctx struct {
	fab  *Cluster
	node int

	lanes    []inLane // inbound lanes, swept round-robin from next
	next     int
	self     []inMsg // self-sends, unhandled from selfHead on
	selfHead int
	selfSeq  int64
	slept    time.Duration // last park, reported with the lane frame that ends it

	parked atomic.Bool
	bell   chan struct{} // 1-slot doorbell
}

// inLane is one inbound lane and the rank that sends on it.
type inLane struct {
	src  int
	lane *RecvLane
}

func (c *ctx) Node() int                 { return c.node }
func (c *ctx) N() int                    { return c.fab.n }
func (c *ctx) Profile() machine.Profile  { return c.fab.prof }
func (c *ctx) Now() sim.Time             { return sim.Time(time.Since(c.fab.start)) }
func (c *ctx) Counters() *stats.Counters { return &c.fab.counters[c.node] }

// Charge accounts modeled time and polls the lanes; it does not sleep.
func (c *ctx) Charge(cat int, d sim.Time) {
	c.fab.acct[c.node][cat] += int64(d)
	c.poll()
}

func (c *ctx) ChargeFlops(cat int, flops float64) {
	c.Charge(cat, c.fab.prof.FlopTime(flops))
}

// Send transmits over the shm lane to dst (or onto this node's own
// queue for a self-send) and polls. A send blocked on a full lane keeps
// serving this rank and rings dst's doorbell: frames flushed before the
// block may be all dst is waiting for.
func (c *ctx) Send(dst, size int, payload any) {
	f := c.fab
	if dst < 0 || dst >= f.n {
		panic(fmt.Sprintf("shmfab: send to invalid node %d", dst))
	}
	cnt := c.Counters()
	cnt.Messages++
	cnt.BytesSent += int64(size)
	f.unhandled.Add(1)
	if dst == c.node {
		c.sendSelf(size, payload)
	} else {
		f.send[c.node][dst].Send(size, payload, func() {
			f.ring(dst)
			c.poll()
		})
		f.ring(dst)
	}
	c.poll()
}

// sendSelf queues a message to this node; no lane exists on the diagonal.
func (c *ctx) sendSelf(size int, payload any) {
	im := inMsg{m: fabric.Message{Src: c.node, Dst: c.node, Size: size, Payload: payload}}
	if tr := c.fab.tr; tr != nil {
		c.selfSeq++
		im.seq = c.selfSeq
		tr.Emit(trace.Event{Node: int32(c.node), Kind: trace.EvMsgSend,
			Peer: int32(c.node), Size: int64(size), Aux: im.seq})
	}
	c.self = append(c.self, im)
}

// handle records the delivery (when tracing), runs the handler and
// retires the message.
func (c *ctx) handle(m fabric.Message, seq int64) {
	f := c.fab
	if tr := f.tr; tr != nil {
		tr.Emit(trace.Event{Node: int32(c.node), Kind: trace.EvMsgDeliver,
			Peer: int32(m.Src), Size: int64(m.Size), Aux: seq})
	}
	f.handler(c, m)
	f.retire()
}

// sweep takes at most one frame from each inbound lane, starting one lane
// further round than the previous sweep so no peer starves another, then
// the oldest self-send. It reports whether it did anything; a lane error
// fails the cluster and counts as progress, so the caller sees the abort.
func (c *ctx) sweep() bool {
	f := c.fab
	got := false
	if k := len(c.lanes); k > 0 {
		first := c.next
		c.next = (first + 1) % k
		for i := 0; i < k; i++ {
			in := c.lanes[(first+i)%k]
			size, payload, seq, ok, err := in.lane.Poll()
			if err != nil {
				f.fatalf("shmfab: lane %d->%d: %v", in.src, c.node, err)
				return true
			}
			if !ok {
				continue
			}
			got = true
			if c.slept > 0 {
				if tr := f.tr; tr != nil {
					tr.Emit(trace.Event{Node: int32(c.node), Kind: trace.EvShmWake,
						Peer: int32(in.src), Aux: int64(c.slept)})
				}
				c.slept = 0
			}
			c.handle(fabric.Message{Src: in.src, Dst: c.node, Size: size, Payload: payload}, seq)
		}
	}
	if c.selfHead < len(c.self) {
		im := c.self[c.selfHead]
		c.self[c.selfHead] = inMsg{}
		if c.selfHead++; c.selfHead == len(c.self) {
			c.self, c.selfHead = c.self[:0], 0
		}
		got = true
		c.handle(im.m, im.seq)
	}
	return got
}

// poll handles everything currently queued without blocking, and panics
// with the cluster error after an abort.
func (c *ctx) poll() {
	for {
		if c.fab.failed() {
			panic(c.fab.err())
		}
		if !c.sweep() {
			return
		}
	}
}

// serve is the rank's idle loop: it handles messages until wake closes,
// spinning briefly when there is nothing to do and then parking. It
// panics with the cluster error after an abort.
func (c *ctx) serve(wake <-chan struct{}) {
	f := c.fab
	for idle := 0; ; {
		select {
		case <-wake:
			return
		case <-f.fail:
			panic(f.err())
		default:
		}
		got := c.sweep()
		c.slept = 0
		switch {
		case got:
			idle = 0
		case idle < spinPolls:
			idle++
			runtime.Gosched()
		default:
			c.park(wake)
			idle = 0
		}
	}
}

// park blocks until wake closes, the doorbell rings or the cluster fails.
// parked is stored before the final emptiness check and a sender loads it
// after its ring write; the atomics are sequentially consistent, so either
// this check sees the frame or the sender sees the flag and rings.
func (c *ctx) park(wake <-chan struct{}) {
	c.parked.Store(true)
	if c.pending() {
		c.parked.Store(false)
		return
	}
	t0 := time.Now()
	select {
	case <-wake:
	case <-c.bell:
	case <-c.fab.fail:
	}
	c.parked.Store(false)
	c.slept = time.Since(t0)
}

// pending reports whether a message is waiting for this rank.
func (c *ctx) pending() bool {
	if c.selfHead < len(c.self) {
		return true
	}
	for _, in := range c.lanes {
		if !in.lane.Empty() {
			return true
		}
	}
	return false
}

// NewEvent creates a one-shot event.
func (c *ctx) NewEvent() fabric.Event { return &event{ch: make(chan struct{})} }

// event is a channel-backed one-shot event.
type event struct {
	once sync.Once
	ch   chan struct{}
}

func (e *event) Signal() { e.once.Do(func() { close(e.ch) }) }

func (e *event) Done() bool {
	select {
	case <-e.ch:
		return true
	default:
		return false
	}
}

// Wait serves the node until the event fires, accounting the blocked
// wall time to the given category. An aborted cluster unwinds the wait
// with the cluster error.
func (e *event) Wait(fc fabric.Ctx, reason int) {
	c := fc.(*ctx)
	start := time.Now()
	c.serve(e.ch)
	c.fab.acct[c.node][reason] += int64(time.Since(start))
}

var _ fabric.Fabric = (*Cluster)(nil)
var _ fabric.Ctx = (*ctx)(nil)
var _ fabric.PayloadReleaser = (*Cluster)(nil)
