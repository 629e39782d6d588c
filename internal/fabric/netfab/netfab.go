// Package netfab implements the fabric over TCP, running one SAM node per
// OS process. It is the third fabric implementation: simfab simulates a
// message-passing machine in virtual time, gofab multiplexes nodes onto
// goroutines in one address space, and netfab distributes them across real
// processes — the configuration the paper's runtime actually targeted,
// where a shared object's bits must travel through a network to move
// between nodes.
//
// Execution semantics mirror gofab exactly: the application runs on the
// caller's goroutine, and incoming messages are handled only while the
// application is inside a fabric call (Charge, Send, Event.Wait) — the
// polling network access of the CM-5 runtime. A node's application and
// handler code therefore never run concurrently, with no locking in the
// message path.
//
// Messages are encoded with the internal/wire codec (self-describing,
// canonical), framed with a uvarint length prefix, and carried on
// one-directional per-(src,dst) TCP connections established lazily on
// first send. One connection per ordered pair plus one reader goroutine
// per connection makes per-link FIFO delivery a structural property
// rather than a protocol obligation. A per-peer writer goroutine batches
// back-to-back sends into single TCP writes. Co-located ranks may trade
// TCP for shared-memory lanes, which the rank goroutine polls itself in
// the same node loop, parking behind a doorbell when idle (shm.go).
//
// A cluster bootstraps through a rendezvous node (rank 0), see boot.go,
// and Run ends by exact termination detected over the same control
// connections, see term.go.
package netfab

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"samsys/internal/fabric"
	"samsys/internal/fabric/shmfab"
	"samsys/internal/machine"
	"samsys/internal/sim"
	"samsys/internal/stats"
	"samsys/internal/trace"
	"samsys/internal/wire"
)

// inboxCap bounds the local message queue, mirroring gofab.
const inboxCap = 1 << 16

// How many empty sweeps a rank with shm lanes makes, yielding between
// them, before it parks (see spinBudget).
const (
	shortSpin = 64
	longSpin  = 1024
)

// inMsg is a queued message plus its per-link sequence number.
type inMsg struct {
	m   fabric.Message
	seq int64
}

func fabricMsg(src, dst, size int, payload any) fabric.Message {
	return fabric.Message{Src: src, Dst: dst, Size: size, Payload: payload}
}

// Config describes one node's membership in a cluster.
type Config struct {
	// Rank is this process's node id in [0, N).
	Rank int
	// N is the cluster size.
	N int
	// Rendezvous is the address of rank 0's listener; required for Rank > 0.
	Rendezvous string
	// Listen is the address to listen on (default "127.0.0.1:0"). For rank 0
	// this is the rendezvous address peers must be told out of band; an
	// explicit port makes that practical.
	Listen string
	// Listener, if non-nil, is used instead of opening Listen; NewLocal uses
	// this to learn rank 0's port before any process joins.
	Listener net.Listener
	// Profile is the machine model used for cost accounting.
	Profile machine.Profile
	// Opts holds every timeout and window bound; zero fields take the
	// defaults documented on Options.
	Opts Options
}

// Fab is one node of a TCP cluster. It implements fabric.Fabric, but —
// unlike simfab and gofab — represents only the local rank: Run runs the
// application for this node only, Counters and Report carry data for the
// local rank and zeros elsewhere.
type Fab struct {
	rank, n int
	prof    machine.Profile
	handler fabric.Handler

	ln      net.Listener
	addrs   []string
	boot    *bootState
	inbox   chan inMsg
	peers   []*peer   // lazily dialed; touched only by the app goroutine
	inLinks []*inLink // receive-side per-src watermark state

	opts       Options
	ready      chan struct{} // rank 0: all peers acked the address map
	readyCount int           // guarded by boot.mu
	done       chan struct{} // closed when every rank's app has finished

	// Hybrid shared-memory state (see shm.go). hostID/shmDir are this
	// rank's advertisement (empty: no shm); hostIDs/shmDirs are the
	// cluster-wide maps learned at bootstrap; bootID names this run's
	// segment files and doorbells. The slices are indexed by peer rank,
	// nil for TCP peers.
	hostID, shmDir, bootID string
	hostIDs, shmDirs       []string
	shmSend                []*shmfab.SendLane
	shmRecv                []*shmfab.RecvLane
	peerBells              []*net.UnixAddr

	// Node-loop state of the rank goroutine: the inbound lanes, swept
	// round-robin from next; the empty sweeps before a park (spinBudget);
	// the last park's length, reported with the lane frame that ends it;
	// and the doorbell a parked rank waits on (nil without lanes).
	lanes    []inLane
	next     int
	spin     int
	slept    time.Duration
	bell     chan struct{}
	bellConn *net.UnixConn
	bellDone chan struct{} // closed when the doorbell reader has ended

	// Data messages this rank has sent and fully handled; the
	// termination waves sum them over the cluster (see term.go).
	sent, handled atomic.Int64

	closing atomic.Bool
	stop    chan struct{} // closed by shutdown; unblocks writer goroutines
	fail    chan struct{}
	failMu  sync.Mutex
	failErr error
	aborted atomic.Bool // an abort notice was already propagated

	// dialCtx ends on the first fatal error or on shutdown, cancelling
	// every data-link dial and its backoff.
	dialCtx     context.Context
	cancelDials context.CancelFunc

	counters []stats.Counters
	acct     [stats.NumCat]int64
	sendSeq  []int64 // per-destination link sequence, app goroutine only
	start    time.Time
	startNS  atomic.Int64 // start as unix nanos; read by the tracer clock
	elapsed  sim.Time
	ran      bool

	tr *trace.Recorder

	clientMu      sync.Mutex // guards clientHandler (see client.go)
	clientHandler ClientHandler
}

// Join opens this node's listener and runs the bootstrap protocol. It
// returns once every node in the cluster has joined and every listener is
// known reachable; the caller then invokes Run.
func Join(cfg Config) (*Fab, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("netfab: need at least one node, got %d", cfg.N)
	}
	if cfg.Rank < 0 || cfg.Rank >= cfg.N {
		return nil, fmt.Errorf("netfab: rank %d outside [0,%d)", cfg.Rank, cfg.N)
	}
	if cfg.Rank > 0 && cfg.Rendezvous == "" {
		return nil, fmt.Errorf("netfab: rank %d needs a rendezvous address", cfg.Rank)
	}
	opts := cfg.Opts.withDefaults()
	ln := cfg.Listener
	if ln == nil {
		addr := cfg.Listen
		if addr == "" {
			addr = "127.0.0.1:0"
		}
		var err error
		ln, err = net.Listen("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("netfab: listen %s: %w", addr, err)
		}
	}
	f := &Fab{
		rank: cfg.Rank, n: cfg.N, prof: cfg.Profile,
		ln:       ln,
		addrs:    make([]string, cfg.N),
		boot:     &bootState{regCh: make(chan registration, cfg.N), tallies: make(chan tally, cfg.N)},
		inbox:    make(chan inMsg, inboxCap),
		peers:    make([]*peer, cfg.N),
		inLinks:  make([]*inLink, cfg.N),
		opts:     opts,
		ready:    make(chan struct{}),
		done:     make(chan struct{}),
		stop:     make(chan struct{}),
		fail:     make(chan struct{}),
		counters: make([]stats.Counters, cfg.N),
		sendSeq:  make([]int64, cfg.N),
		hostIDs:  make([]string, cfg.N),
		shmDirs:  make([]string, cfg.N),
		shmSend:  make([]*shmfab.SendLane, cfg.N),
		shmRecv:  make([]*shmfab.RecvLane, cfg.N),

		peerBells: make([]*net.UnixAddr, cfg.N),
	}
	for i := range f.inLinks {
		f.inLinks[i] = &inLink{}
	}
	f.dialCtx, f.cancelDials = context.WithCancel(context.Background())
	f.resolveShm()
	go f.acceptLoop()
	deadline := time.Now().Add(opts.Boot)
	var err error
	if cfg.Rank == 0 {
		err = f.bootstrapRendezvous(deadline)
	} else {
		err = f.bootstrapJoin(cfg.Rendezvous, deadline)
	}
	if err != nil {
		f.shutdown()
		return nil, err
	}
	return f, nil
}

// fatalf records the first fatal error and unblocks everything waiting on
// the fabric. Network failures surface on goroutines that cannot return an
// error to the application; the app goroutine observes them at its next
// fabric call and panics with the stored error. The first fatal error is
// also propagated over the control plane so the whole cluster fails in
// bounded time instead of hanging on a dead rank (see propagateAbort).
func (f *Fab) fatalf(format string, args ...any) {
	f.failMu.Lock()
	first := f.failErr == nil
	if first {
		f.failErr = fmt.Errorf("netfab: rank %d: %s", f.rank, fmt.Sprintf(format, args...))
		close(f.fail)
		f.cancelDials()
	}
	f.failMu.Unlock()
	if first {
		go f.propagateAbort(fmt.Sprintf(format, args...))
	}
}

// propagateAbort tells the rest of the cluster this rank has failed: rank 0
// broadcasts to every peer, a peer notifies rank 0 (which then broadcasts).
// Errors are ignored — a dead control link means the other side already
// knows. This is what turns a rank death into a clean, bounded-time error
// from Run on every surviving rank instead of a hang.
func (f *Fab) propagateAbort(reason string) {
	if f.aborted.Swap(true) {
		return
	}
	notice := ctrlFrame(frAbort, func(e *wire.Encoder) {
		e.Int(f.rank)
		e.String(reason)
	})
	f.boot.mu.Lock()
	var conns []net.Conn
	if f.rank == 0 {
		for rank, c := range f.boot.ctrl {
			if rank != 0 && c != nil {
				conns = append(conns, c)
			}
		}
	} else if f.boot.ctrlConn != nil {
		conns = append(conns, f.boot.ctrlConn)
	}
	f.boot.mu.Unlock()
	for _, c := range conns {
		c.SetWriteDeadline(time.Now().Add(f.opts.Write))
		sendCtrl(c, notice)
	}
}

// InjectLinkReset abruptly closes the current outgoing data connection
// src->dst, exercising the redial-and-resend path. It reports whether the
// fault applied: true for a dialed link even if the connection is
// momentarily down from an earlier reset (severing a severed link is an
// idempotent no-op, not a skipped fault), false only when there is no
// link to reset. Fault injection (faultfab) is the only intended caller;
// it runs on the app goroutine of rank src.
func (f *Fab) InjectLinkReset(src, dst int) bool {
	if src != f.rank || dst < 0 || dst >= f.n || dst == f.rank {
		return false
	}
	if sl := f.shmSend[dst]; sl != nil {
		// Shm link: shared memory has no connection to sever, so the reset
		// reinitializes the lane in place (the epoch advances, the events
		// fire) and drops nothing — same contract as shmfab.Cluster.
		sl.Reset()
		if tr := f.tr; tr != nil {
			tr.Emit(trace.Event{Node: int32(f.rank), Kind: trace.EvLinkDown, Peer: int32(dst), Aux: 1})
			tr.Emit(trace.Event{Node: int32(f.rank), Kind: trace.EvLinkRedial, Peer: int32(dst), Aux: 1})
		}
		return true
	}
	p := f.peers[dst]
	if p == nil {
		return false // link never dialed; nothing to reset
	}
	p.mu.Lock()
	c := p.conn
	p.mu.Unlock()
	if c != nil {
		c.Close()
	}
	return true
}

// InjectKill marks this rank fatally failed, as if its process had died:
// every fabric call on it starts panicking with the stored error (Run
// returns it), its connections close, and the abort propagates so every
// other rank's Run also returns an error in bounded time.
func (f *Fab) InjectKill(rank int, reason string) bool {
	if rank != f.rank {
		return false
	}
	f.fatalf("fault injection: %s", reason)
	return true
}

func (f *Fab) err() error {
	f.failMu.Lock()
	defer f.failMu.Unlock()
	return f.failErr
}

// checkFail panics on the app goroutine with the stored fabric error.
func (f *Fab) checkFail() {
	select {
	case <-f.fail:
		panic(f.err())
	default:
	}
}

// N returns the cluster size.
func (f *Fab) N() int { return f.n }

// Rank returns this process's node id.
func (f *Fab) Rank() int { return f.rank }

// Profile returns the machine profile used for accounting.
func (f *Fab) Profile() machine.Profile { return f.prof }

// SetHandler installs the message handler. Call before Run.
func (f *Fab) SetHandler(h fabric.Handler) { f.handler = h }

// Counters returns node i's counters: live data for the local rank,
// zeros for remote ranks (their counters live in their processes).
func (f *Fab) Counters(node int) *stats.Counters { return &f.counters[node] }

// Elapsed returns the wall-clock duration of the run.
func (f *Fab) Elapsed() sim.Time { return f.elapsed }

// SetTracer attaches an event recorder; events are stamped with wall time
// since Run started. Call before Run; pass nil to detach.
func (f *Fab) SetTracer(r *trace.Recorder) {
	f.tr = r
	if r == nil {
		return
	}
	r.SetClock(func() sim.Time {
		s := f.startNS.Load()
		if s == 0 {
			return 0
		}
		return sim.Time(time.Now().UnixNano() - s)
	})
}

// Report returns the cost breakdown for the local rank; remote entries are
// zero apart from the node id.
func (f *Fab) Report() []stats.NodeReport {
	reports := make([]stats.NodeReport, f.n)
	for i := range reports {
		reports[i] = stats.NodeReport{Node: i}
	}
	r := &reports[f.rank]
	r.Total = f.elapsed
	for c := 0; c < stats.NumCat; c++ {
		r.Acct[c] = sim.Time(f.acct[c])
	}
	return reports
}

// Run executes app as this rank's application process and returns once
// every rank in the cluster has finished. After the local app body
// returns, the node keeps serving messages (remote fetches of locally
// owned objects, replies still in flight) until rank 0's termination
// waves find that no message is left anywhere in the cluster.
func (f *Fab) Run(app func(c fabric.Ctx)) (err error) {
	if f.ran {
		return fmt.Errorf("netfab: Run called twice")
	}
	f.ran = true
	f.start = time.Now()
	f.startNS.Store(f.start.UnixNano())
	var detector chan struct{}
	if f.rank == 0 {
		detector = make(chan struct{})
		go func() {
			defer close(detector)
			f.detectTermination()
		}()
	}
	c := &ctx{fab: f}
	defer func() {
		if r := recover(); r != nil {
			if fe := f.err(); fe != nil {
				err = fe
			} else {
				panic(r)
			}
		}
		f.shutdown()
		if detector != nil {
			<-detector // shutdown closed f.stop, which ends it
		}
		f.elapsed = sim.Time(time.Since(f.start))
		if err == nil {
			err = f.err()
		}
	}()
	app(c)
	f.appDone()
	c.serve(f.done)
	return nil
}

// shutdown tears down connections and the listener. Idempotent.
func (f *Fab) shutdown() {
	if f.closing.Swap(true) {
		return
	}
	close(f.stop)
	f.cancelDials()
	for _, p := range f.peers {
		if p != nil {
			close(p.out) // writer flushes and closes the conn
		}
	}
	f.boot.mu.Lock()
	for _, c := range f.boot.ctrl {
		if c != nil {
			c.Close()
		}
	}
	if f.boot.ctrlConn != nil {
		f.boot.ctrlConn.Close()
	}
	f.boot.mu.Unlock()
	f.ln.Close()
	f.closeBell()
	f.closeShmLanes()
}

// peer returns the data link to dst, dialing it on first use. Only the app
// goroutine sends, so no locking is needed.
func (f *Fab) peer(dst int) *peer {
	if p := f.peers[dst]; p != nil {
		return p
	}
	p, err := f.newPeer(dst)
	if err != nil {
		f.fatalf("%v", err)
		panic(f.err())
	}
	f.peers[dst] = p
	return p
}

// ctx is this rank's execution context; all methods run on the app
// goroutine (handlers included — they run inside poll). The node loop is
// the polling message service of the CM-5 runtime: every fabric call
// sweeps the rank's inbound shm lanes and its inbox, and an idle rank
// spins briefly, then parks until a sender rings its doorbell.
type ctx struct {
	fab *Fab
}

func (c *ctx) Node() int                 { return c.fab.rank }
func (c *ctx) N() int                    { return c.fab.n }
func (c *ctx) Profile() machine.Profile  { return c.fab.prof }
func (c *ctx) Now() sim.Time             { return sim.Time(time.Since(c.fab.start)) }
func (c *ctx) Counters() *stats.Counters { return &c.fab.counters[c.fab.rank] }

// Charge accounts modeled time and polls; it does not sleep.
func (c *ctx) Charge(cat int, d sim.Time) {
	c.fab.acct[cat] += int64(d)
	c.poll()
}

func (c *ctx) ChargeFlops(cat int, flops float64) {
	c.Charge(cat, c.fab.prof.FlopTime(flops))
}

// Send encodes the message and queues it on the destination link. The
// payload type must be wire-registered; unregistered payloads panic at the
// sender, where the stack identifies the culprit.
func (c *ctx) Send(dst, size int, payload any) {
	f := c.fab
	if dst < 0 || dst >= f.n {
		panic(fmt.Sprintf("netfab: send to invalid node %d", dst))
	}
	cnt := c.Counters()
	cnt.Messages++
	cnt.BytesSent += int64(size)
	f.sent.Add(1)
	f.sendSeq[dst]++
	seq := f.sendSeq[dst]
	if dst == f.rank {
		// Local sends short-circuit the network but keep queue semantics.
		im := inMsg{m: fabricMsg(f.rank, f.rank, size, payload), seq: seq}
		if tr := f.tr; tr != nil {
			tr.Emit(trace.Event{Node: int32(f.rank), Kind: trace.EvMsgSend,
				Peer: int32(dst), Size: int64(size), Aux: seq})
		}
		for {
			select {
			case f.inbox <- im:
				c.poll()
				return
			default:
			}
			// Inbox full: service it until there is room. Handlers may
			// re-enter Send, so the enqueue attempt above must come first —
			// taking a message when the queue has room could let a nested
			// send overtake this one on the link. The select blocks, so a
			// stalled rank burns no CPU.
			select {
			case f.inbox <- im:
				c.poll()
				return
			case in := <-f.inbox:
				c.handle(in)
			}
		}
	}
	if sl := f.shmSend[dst]; sl != nil {
		// Co-located peer: the message rides the shared-memory lane. The
		// lane numbers and traces the send itself (EvShmSend via OnSend;
		// its frame count is the link sequence, so f.sendSeq stays unused
		// for shm destinations), and while blocked on ring or arena space
		// it keeps this rank serving — handlers may re-enter Send and
		// queue behind this message in FIFO order — and rings dst, since
		// the frames written before the block may be all dst waits for.
		sl.Send(size, payload, func() {
			f.ring(dst)
			c.poll()
		})
		f.ring(dst)
		c.poll()
		return
	}
	e := wire.GetEncoder()
	e.Uint8(frData)
	e.Int(size)
	e.Varint(seq)
	e.Any(payload)
	if tr := f.tr; tr != nil {
		tr.Emit(trace.Event{Node: int32(f.rank), Kind: trace.EvMsgSend,
			Peer: int32(dst), Size: int64(size), Aux: seq})
	}
	p := f.peer(dst)
	// The encoder rides along; trimAcked recycles it once the receiver
	// has accepted the frame and no resend can need the bytes.
	of := outFrame{seq: seq, body: e.Bytes(), enc: e}
	for {
		select {
		case p.out <- of:
			c.poll()
			return
		default:
		}
		// Destination queue full: serve this rank to avoid send-send
		// deadlock. The non-blocking attempt above must come first: a
		// handled message can re-enter Send for the same link, and taking
		// that path while the queue has room would enqueue the nested
		// message's higher sequence number before ours. With nothing to
		// serve, block until the writer drains the queue, a message
		// arrives or — parked like serve's park — a lane peer rings.
		if c.sweep() || !f.prepark() {
			continue
		}
		select {
		case p.out <- of:
			f.setParked(false)
			c.poll()
			return
		case in := <-f.inbox:
			f.setParked(false)
			c.handle(in)
		case <-f.bell:
			f.setParked(false)
		case <-f.fail:
			panic(f.err())
		}
	}
}

// handle records the delivery (when tracing), runs the handler and
// counts the message handled — after the handler, so a message's own
// sends are counted before it is.
func (c *ctx) handle(im inMsg) {
	f := c.fab
	if tr := f.tr; tr != nil {
		tr.Emit(trace.Event{Node: int32(f.rank), Kind: trace.EvMsgDeliver,
			Peer: int32(im.m.Src), Size: int64(im.m.Size), Aux: im.seq})
	}
	f.handler(c, im.m)
	f.handled.Add(1)
}

// sweep takes at most one frame from each inbound shm lane, starting one
// lane further round than the previous sweep so no peer starves another,
// then one message from the inbox (TCP peers and self-sends). It reports
// whether it handled anything.
func (c *ctx) sweep() bool {
	f := c.fab
	got := false
	if k := len(f.lanes); k > 0 {
		first := f.next
		f.next = (first + 1) % k
		for i := 0; i < k; i++ {
			in := f.lanes[(first+i)%k]
			size, payload, seq, ok, err := in.lane.Poll()
			if err != nil {
				f.fatalf("shm lane %d->%d: %v", in.src, f.rank, err)
				panic(f.err())
			}
			if !ok {
				continue
			}
			got = true
			if f.slept > 0 {
				if tr := f.tr; tr != nil {
					tr.Emit(trace.Event{Node: int32(f.rank), Kind: trace.EvShmWake,
						Peer: int32(in.src), Aux: int64(f.slept)})
				}
				f.slept = 0
			}
			c.handle(inMsg{m: fabricMsg(in.src, f.rank, size, payload), seq: seq})
		}
	}
	select {
	case im := <-f.inbox:
		c.handle(im)
		return true
	default:
		return got
	}
}

// poll handles everything currently queued without blocking, and panics
// with the fabric error after a failure.
func (c *ctx) poll() {
	for {
		c.fab.checkFail()
		if !c.sweep() {
			return
		}
	}
}

// serve is the rank's idle loop: it handles messages until wake closes,
// and panics with the fabric error after a failure. A rank with shm
// lanes spins briefly when there is nothing to do, then parks; a TCP-only
// rank has nothing to poll and blocks on its inbox directly.
func (c *ctx) serve(wake <-chan struct{}) {
	f := c.fab
	if len(f.lanes) == 0 {
		for {
			select {
			case <-wake:
				return
			case im := <-f.inbox:
				c.handle(im)
			case <-f.fail:
				panic(f.err())
			}
		}
	}
	for idle := 0; ; {
		select {
		case <-wake:
			return
		case <-f.fail:
			panic(f.err())
		default:
		}
		got := c.sweep()
		f.slept = 0
		switch {
		case got:
			idle = 0
		case idle < f.spin:
			idle++
			runtime.Gosched()
		default:
			c.park(wake)
			idle = 0
		}
	}
}

// park blocks until wake closes, the inbox has a message, a lane peer
// rings the doorbell or the fabric fails.
func (c *ctx) park(wake <-chan struct{}) {
	f := c.fab
	if !f.prepark() {
		return
	}
	t0 := time.Now()
	select {
	case <-wake:
	case im := <-f.inbox:
		f.setParked(false)
		c.handle(im)
		return
	case <-f.bell:
	case <-f.fail:
	}
	f.setParked(false)
	f.slept = time.Since(t0)
}

// prepark raises the parked flag on every inbound lane and reports
// whether the rank may block: false, with the flag cleared again, when a
// lane already holds a frame. Every block that a lane frame should end
// (park, and a send blocked on a full TCP queue) must call it first and
// clear the flag when it wakes. The flag is stored before the emptiness
// check and a sender claims it after its ring write; the atomics are
// sequentially consistent, so either the check sees the frame or the
// sender sees the flag and rings.
func (f *Fab) prepark() bool {
	f.setParked(true)
	if f.lanesPending() {
		f.setParked(false)
		return false
	}
	return true
}

// setParked raises or clears the parked flag on every inbound lane.
func (f *Fab) setParked(on bool) {
	for _, in := range f.lanes {
		in.lane.SetParked(on)
	}
}

// lanesPending reports whether an inbound lane holds a frame.
func (f *Fab) lanesPending() bool {
	for _, in := range f.lanes {
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
// wall time to the given category.
func (e *event) Wait(fc fabric.Ctx, reason int) {
	c := fc.(*ctx)
	start := time.Now()
	c.serve(e.ch)
	c.fab.acct[reason] += int64(time.Since(start))
}

var _ fabric.Fabric = (*Fab)(nil)
var _ fabric.Ctx = (*ctx)(nil)
