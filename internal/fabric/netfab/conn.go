package netfab

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"samsys/internal/trace"
	"samsys/internal/wire"
)

// Frame kinds. Every TCP segment stream is a sequence of length-prefixed
// frames (uvarint byte count, then the body); the first body byte is the
// kind. A connection's first frame declares its role: frRegister opens a
// control connection to the rendezvous node, frHello opens a one-way data
// link. Control frames implement the bootstrap, the termination waves and
// cluster-wide abort; frData carries one fabric message. frAck flows in
// the reverse direction of a data link (TCP is full duplex): the acceptor
// acknowledges the highest per-link sequence number it has accepted, which
// lets the dialer trim its resend window.
const (
	frRegister = iota + 1 // peer -> rank 0: rank, n, listen addr, registry hash, shm host+dir
	frWelcome             // rank 0 -> peer: n, addrs[0..n), registry hash, boot id, shm maps
	frReady               // peer -> rank 0: received the address map
	frGo                  // rank 0 -> peer: everyone is ready, start Run
	frDone                // peer -> rank 0: data messages sent and handled (app done, or a probe's answer)
	frAllDone             // rank 0 -> peer: no message left anywhere, shut down
	frHello               // dialer -> acceptor: src rank, resume flag
	frData                // one fabric message: modeled size, per-link seq, payload
	frAck                 // acceptor -> dialer: cumulative accepted per-link seq
	frAbort               // control plane, both directions: origin rank, reason
	frClient              // external client -> any rank: registry hash (see client.go)
	frProbe               // rank 0 -> peer: next termination wave, answer with frDone
)

// maxFrame bounds a frame body; data items are at most a few hundred MB in
// any reasonable run, and a hostile length must not allocate unbounded
// memory.
const maxFrame = 1 << 30

// writeFrame appends the uvarint length prefix and body to w. The caller
// decides when to Flush (the per-peer writer batches). The prefix goes
// through a stack array so the hot path allocates nothing.
func writeFrame(w *bufio.Writer, body []byte) error {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(body)))
	if _, err := w.Write(hdr[:n]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// readFrame reads one length-prefixed frame body.
func readFrame(r *bufio.Reader) ([]byte, error) {
	n, err := readUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > maxFrame {
		return nil, fmt.Errorf("netfab: frame of %d bytes exceeds limit", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}

func readUvarint(r *bufio.Reader) (uint64, error) {
	var x uint64
	var s uint
	for i := 0; ; i++ {
		c, err := r.ReadByte()
		if err != nil {
			return 0, err
		}
		if c < 0x80 {
			if i == 9 && c > 1 {
				return 0, fmt.Errorf("netfab: frame length overflows uint64")
			}
			return x | uint64(c)<<s, nil
		}
		if i == 9 {
			return 0, fmt.Errorf("netfab: frame length overflows uint64")
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
}

// dialRetry dials addr until it succeeds, the deadline passes or ctx is
// done, backing off exponentially from backoff to backoffMax between
// attempts (the Options.DialBackoff bounds). Peers of a cluster start in
// arbitrary order, so early dials routinely hit "connection refused" —
// retry is part of the bootstrap contract, not error handling. The same
// loop is the lazy first dial and the reconnect path after a data-link
// failure; those pass the fabric's dial context, so an abort or shutdown
// ends a dial to a dead rank at once instead of at the deadline.
func dialRetry(ctx context.Context, addr string, deadline time.Time, backoff, backoffMax time.Duration) (net.Conn, error) {
	ctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	var d net.Dialer
	for {
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			if tc, ok := conn.(*net.TCPConn); ok {
				tc.SetNoDelay(true) // frames are batched by the writer, not the kernel
			}
			return conn, nil
		}
		if time.Now().Add(backoff).After(deadline) {
			return nil, fmt.Errorf("netfab: dial %s: %w", addr, err)
		}
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return nil, fmt.Errorf("netfab: dial %s: %w", addr, ctx.Err())
		}
		backoff *= 2
		if backoff > backoffMax {
			backoff = backoffMax
		}
	}
}

// outCap bounds each outgoing peer queue (frames). A full queue makes Send
// service the local inbox while retrying, mirroring gofab's backpressure.
const outCap = 1 << 12

// outFrame is one queued data frame plus its per-link sequence number;
// the sequence orders the resend window and lets acks trim it. body
// aliases enc's buffer; once the frame is acked the encoder returns to
// the wire pool, so the body must not be touched after trimAcked drops
// the frame.
type outFrame struct {
	seq  int64
	body []byte
	enc  *wire.Encoder
}

// peer is one outgoing data link: a dialed connection, a writer goroutine
// that batches queued frames into single flushes and keeps the
// unacknowledged window for resend, and one ack-reader goroutine per
// connection incarnation.
type peer struct {
	dst    int
	out    chan outFrame
	notify chan struct{} // coalesced ping: ack progress or connection error

	mu      sync.Mutex
	conn    net.Conn // current connection (InjectLinkReset closes it)
	gen     int      // connection incarnation; stale ack readers go quiet
	acked   int64    // cumulative acked seq from the receiver
	connErr bool     // current incarnation saw a read error (ack side)
}

// ping wakes the writer without blocking; multiple pings coalesce.
func (p *peer) ping() {
	select {
	case p.notify <- struct{}{}:
	default:
	}
}

// status snapshots the ack watermark and whether the current connection is
// known broken.
func (p *peer) status() (acked int64, broken bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.acked, p.connErr
}

// setConn installs a new connection incarnation and returns its generation.
func (p *peer) setConn(conn net.Conn) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.conn = conn
	p.gen++
	p.connErr = false
	return p.gen
}

// closeConn closes the current connection, if any.
func (p *peer) closeConn() {
	p.mu.Lock()
	c := p.conn
	p.conn = nil
	p.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// sendHello writes the link-opening frame directly (it is not part of the
// sequenced data stream and must precede any resend).
func (f *Fab) sendHello(conn net.Conn, resume bool) error {
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	e.Uint8(frHello)
	e.Int(f.rank)
	e.Bool(resume)
	bw := bufio.NewWriter(conn)
	conn.SetWriteDeadline(time.Now().Add(f.opts.Write))
	defer conn.SetWriteDeadline(time.Time{})
	if err := writeFrame(bw, e.Bytes()); err != nil {
		return err
	}
	return bw.Flush()
}

// newPeer dials dst's listener, sends the link hello and starts the
// batching writer and the ack reader.
func (f *Fab) newPeer(dst int) (*peer, error) {
	conn, err := dialRetry(f.dialCtx, f.addrs[dst], time.Now().Add(f.opts.Boot),
		f.opts.DialBackoff, f.opts.DialBackoffMax)
	if err != nil {
		return nil, fmt.Errorf("link %d->%d: %w", f.rank, dst, err)
	}
	p := &peer{dst: dst, out: make(chan outFrame, outCap), notify: make(chan struct{}, 1)}
	if err := f.sendHello(conn, false); err != nil {
		conn.Close()
		return nil, fmt.Errorf("link %d->%d: hello: %w", f.rank, dst, err)
	}
	gen := p.setConn(conn)
	go f.ackLoop(p, conn, gen)
	go f.writeLoop(p, conn)
	return p, nil
}

// ackLoop consumes cumulative acks flowing back on one incarnation of a
// data link. On a read error it flags the incarnation broken so the writer
// redials even if it has nothing new to send — frames may sit unacked in a
// dead TCP buffer with no further sends to flush them out.
func (f *Fab) ackLoop(p *peer, conn net.Conn, gen int) {
	br := bufio.NewReader(conn)
	for {
		body, err := readFrame(br)
		if err != nil {
			p.mu.Lock()
			if p.gen == gen && !f.closing.Load() {
				p.connErr = true
			}
			p.mu.Unlock()
			p.ping()
			return
		}
		d := wire.NewDecoder(body)
		if kind := d.Uint8(); kind != frAck {
			f.fatalf("link %d->%d: unexpected reverse frame kind %d", f.rank, p.dst, kind)
			return
		}
		cum := d.Varint()
		if d.Err() != nil {
			f.fatalf("link %d->%d: bad ack: %v", f.rank, p.dst, d.Err())
			return
		}
		p.mu.Lock()
		if cum > p.acked {
			p.acked = cum
		}
		p.mu.Unlock()
		p.ping()
	}
}

// trimAcked drops acknowledged frames from the front of the window,
// returning their encode buffers to the wire pool — the receiver has
// accepted them, so no resend can need the bytes again.
func trimAcked(unacked []outFrame, acked int64) []outFrame {
	i := 0
	for i < len(unacked) && unacked[i].seq <= acked {
		wire.PutEncoder(unacked[i].enc)
		unacked[i].enc = nil
		unacked[i].body = nil
		i++
	}
	return unacked[i:]
}

// writeLoop writes queued frames, coalescing every frame already in the
// queue into one buffered write and flushing only when the queue drains
// momentarily. Every written frame stays in the unacknowledged window
// until the receiver's cumulative ack covers it; a connection error — a
// real reset, a write timeout, or an injected fault — triggers a redial
// and a resend of the whole window (the receiver suppresses duplicates by
// sequence number). Closing p.out flushes the connection; every exit
// closes it, which ends this link's ackLoop and the receiver's readLoop.
func (f *Fab) writeLoop(p *peer, conn net.Conn) {
	defer p.closeConn()
	bw := bufio.NewWriterSize(conn, 64<<10)
	var unacked []outFrame
	fail := func() bool { // returns false when the link is lost for good
		conn, bw = f.redial(p, &unacked)
		return bw != nil
	}
	for {
		acked, broken := p.status()
		unacked = trimAcked(unacked, acked)
		if broken {
			if !fail() {
				return
			}
			continue
		}
		if len(unacked) >= f.opts.AckWindow {
			// Window full: wait for ack progress (or a link/fabric failure).
			select {
			case <-p.notify:
			case <-f.stop:
				return
			}
			continue
		}
		var of outFrame
		var ok bool
		select {
		case of, ok = <-p.out:
		case <-p.notify:
			continue
		case <-f.stop:
			return
		}
		if !ok {
			bw.Flush()
			return
		}
		werr := false
		closed := false
	batch:
		for {
			unacked = append(unacked, of)
			conn.SetWriteDeadline(time.Now().Add(f.opts.Write))
			if err := writeFrame(bw, of.body); err != nil {
				werr = true
				break batch
			}
			if len(unacked) >= f.opts.AckWindow {
				break batch
			}
			select {
			case of, ok = <-p.out:
				if !ok {
					closed = true
					break batch
				}
			default:
				break batch
			}
		}
		if !werr {
			conn.SetWriteDeadline(time.Now().Add(f.opts.Write))
			if err := bw.Flush(); err != nil {
				werr = true
			}
		}
		if werr {
			if !fail() {
				return
			}
			if closed {
				// Shutdown raced the failure; the redial already resent
				// everything outstanding.
				bw.Flush()
				return
			}
			continue
		}
		if closed {
			return
		}
	}
}

// redial re-establishes a failed data link within the LinkRetry window and
// resends the unacknowledged frames. On success it returns the new
// connection; if the window expires (or the fabric is shutting down) it
// reports the link unrecoverable — a fatal fabric error.
func (f *Fab) redial(p *peer, unacked *[]outFrame) (net.Conn, *bufio.Writer) {
	p.closeConn()
	if f.closing.Load() || f.ended() {
		// Past the all-done barrier every frame has been handled, and a
		// peer that exits severs its links; nothing is left to resend.
		return nil, nil
	}
	if tr := f.tr; tr != nil {
		tr.Emit(trace.Event{Node: int32(f.rank), Kind: trace.EvLinkDown,
			Peer: int32(p.dst), Aux: 1})
	}
	deadline := time.Now().Add(f.opts.LinkRetry)
	for attempt := 1; ; attempt++ {
		if f.closing.Load() {
			return nil, nil
		}
		conn, err := dialRetry(f.dialCtx, f.addrs[p.dst], deadline,
			f.opts.DialBackoff, f.opts.DialBackoffMax)
		if err != nil {
			// Our own shutdown cancels the dial; that is the end of the
			// run, not a lost link.
			if !f.closing.Load() {
				f.fatalf("link %d->%d: reconnect: %v", f.rank, p.dst, err)
			}
			return nil, nil
		}
		if err := f.sendHello(conn, true); err != nil {
			conn.Close()
			if time.Now().After(deadline) {
				f.fatalf("link %d->%d: reconnect hello: %v", f.rank, p.dst, err)
				return nil, nil
			}
			continue
		}
		gen := p.setConn(conn)
		go f.ackLoop(p, conn, gen)
		// Resend everything not yet acknowledged. The receiver drops
		// duplicates by sequence number, so resending an already-accepted
		// frame is safe; losing one would not be.
		acked, _ := p.status()
		*unacked = trimAcked(*unacked, acked)
		bw := bufio.NewWriterSize(conn, 64<<10)
		ok := true
		for _, of := range *unacked {
			conn.SetWriteDeadline(time.Now().Add(f.opts.Write))
			if err := writeFrame(bw, of.body); err != nil {
				ok = false
				break
			}
		}
		if ok {
			conn.SetWriteDeadline(time.Now().Add(f.opts.Write))
			ok = bw.Flush() == nil
		}
		if !ok {
			conn.Close()
			if time.Now().After(deadline) {
				f.fatalf("link %d->%d: resend failed within retry window", f.rank, p.dst)
				return nil, nil
			}
			continue
		}
		if tr := f.tr; tr != nil {
			tr.Emit(trace.Event{Node: int32(f.rank), Kind: trace.EvLinkRedial,
				Peer: int32(p.dst), Aux: int64(attempt), Aux2: int64(len(*unacked))})
		}
		return conn, bw
	}
}

// inLink is the receive-side state of one (src, this rank) data link. It
// survives connection incarnations: lastSeq is the exactly-once watermark
// that makes a resent window idempotent. The mutex serializes the
// check-and-enqueue of overlapping readLoops (the old incarnation may
// still be draining buffered frames when the resumed one starts).
type inLink struct {
	mu       sync.Mutex
	lastSeq  int64 // highest seq accepted into the inbox
	accepted int   // frames accepted since the last cumulative ack
}

// acceptLoop accepts incoming connections for the fabric's whole lifetime:
// control registrations during bootstrap (rank 0) and data links any time
// — including resumed incarnations after a link failure.
func (f *Fab) acceptLoop() {
	for {
		conn, err := f.ln.Accept()
		if err != nil {
			if !f.closing.Load() {
				f.fatalf("accept: %v", err)
			}
			return
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		go f.serveConn(conn)
	}
}

// serveConn classifies a new connection by its first frame and serves it.
// A connection that dies or talks garbage before classifying itself is
// dropped, not fatal: a long-lived service rank accepts from the open
// network, and a half-open probe or a client that gave up mid-dial must
// not take the cluster down. Failures after classification — on rank and
// control links, whose peers are known cluster members — stay fatal.
func (f *Fab) serveConn(conn net.Conn) {
	br := bufio.NewReaderSize(conn, 64<<10)
	body, err := readFrame(br)
	if err != nil {
		conn.Close()
		return
	}
	d := wire.NewDecoder(body)
	switch kind := d.Uint8(); kind {
	case frRegister:
		if f.rank != 0 {
			f.fatalf("registration frame on non-rendezvous node %d", f.rank)
			conn.Close()
			return
		}
		rank := d.Int()
		n := d.Int()
		addr := d.String()
		hash := d.Uvarint()
		host := d.String()
		shmDir := d.String()
		if d.Err() != nil {
			f.fatalf("bad registration: %v", d.Err())
			conn.Close()
			return
		}
		f.boot.regCh <- registration{conn: conn, br: br, rank: rank, n: n,
			addr: addr, hash: hash, host: host, shmDir: shmDir}
	case frHello:
		src := d.Int()
		resume := d.Bool()
		if d.Err() != nil || src < 0 || src >= f.n {
			f.fatalf("bad link hello from %s", conn.RemoteAddr())
			conn.Close()
			return
		}
		f.readLoop(conn, br, src, resume)
	case frClient:
		f.serveClient(conn, br, d)
	default:
		conn.Close()
	}
}

// sendAck writes one cumulative ack back to the dialer on the data
// connection's reverse direction.
func (f *Fab) sendAck(conn net.Conn, bw *bufio.Writer, seq int64) error {
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	e.Uint8(frAck)
	e.Varint(seq)
	conn.SetWriteDeadline(time.Now().Add(f.opts.Write))
	if err := writeFrame(bw, e.Bytes()); err != nil {
		return err
	}
	return bw.Flush()
}

// readLoop decodes data frames from one incarnation of an incoming link
// and queues them on the node's inbox. Per-link FIFO and exactly-once
// delivery are enforced structurally: under the link mutex a frame is
// accepted only if its sequence number is exactly lastSeq+1 — smaller is a
// duplicate from a resent window (suppressed, traced), larger is a hole
// the resend protocol can never produce (fatal). A connection error here
// is not fatal: the dialer owns link repair and will resume with a fresh
// connection, so this side just goes quiet.
func (f *Fab) readLoop(conn net.Conn, br *bufio.Reader, src int, resume bool) {
	defer conn.Close()
	link := f.inLinks[src]
	bw := bufio.NewWriter(conn)
	if resume {
		// Re-ack the watermark immediately so the dialer trims the resend
		// window it is about to replay.
		link.mu.Lock()
		last := link.lastSeq
		link.mu.Unlock()
		if err := f.sendAck(conn, bw, last); err != nil {
			return
		}
	}
	for {
		body, err := readFrame(br)
		if err != nil {
			// EOF after the cluster finished is the normal link teardown;
			// any other error is the dialer's to repair.
			if !f.closing.Load() && err != io.EOF {
				if tr := f.tr; tr != nil {
					tr.Emit(trace.Event{Node: int32(f.rank), Kind: trace.EvLinkDown,
						Peer: int32(src), Aux: 0})
				}
			}
			return
		}
		d := wire.NewDecoder(body)
		if kind := d.Uint8(); kind != frData {
			f.fatalf("link %d->%d: unexpected frame kind %d", src, f.rank, kind)
			return
		}
		size := d.Int()
		seq := d.Varint()
		payload := d.Any()
		if d.Err() != nil {
			f.fatalf("link %d->%d: decode: %v", src, f.rank, d.Err())
			return
		}
		link.mu.Lock()
		if seq <= link.lastSeq {
			link.mu.Unlock()
			if tr := f.tr; tr != nil {
				tr.Emit(trace.Event{Node: int32(f.rank), Kind: trace.EvMsgDup,
					Peer: int32(src), Aux: seq})
			}
			continue
		}
		if seq != link.lastSeq+1 {
			last := link.lastSeq
			link.mu.Unlock()
			f.fatalf("link %d->%d: sequence hole: got %d after %d (message lost)",
				src, f.rank, seq, last)
			return
		}
		link.lastSeq = seq
		link.accepted++
		needAck := link.accepted >= f.opts.AckEvery
		if needAck {
			link.accepted = 0
		}
		// Enqueue under the link mutex: an overlapping readLoop for the
		// same src (old + resumed connection) must not interleave
		// out-of-order into the inbox.
		select {
		case f.inbox <- inMsg{m: fabricMsg(src, f.rank, size, payload), seq: seq}:
			link.mu.Unlock()
		case <-f.fail:
			link.mu.Unlock()
			return
		}
		if needAck {
			if err := f.sendAck(conn, bw, seq); err != nil {
				return // dialer repairs; the resumed incarnation re-acks
			}
		}
	}
}
