package netfab

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"samsys/internal/wire"
)

// The bootstrap (rendezvous) protocol. Rank 0 is the rendezvous node:
// every other rank dials it, registers its rank and data-listener address,
// and blocks until rank 0 has heard from everyone. Rank 0 then broadcasts
// the complete address map (frWelcome), collects an acknowledgement from
// every peer (frReady) and releases them (frGo) — a barrier that
// guarantees no node enters Run before every listener in the cluster is
// reachable. The same control connections carry the termination waves
// (see term.go): each rank reports frDone when its application process
// returns, rank 0 probes until the cluster is provably out of messages,
// and answers with frAllDone, at which point message service stops and
// Run returns everywhere.
//
// Registration carries the wire registry hash (see wire.Hash): a cluster
// whose processes were built with different registered type sets fails at
// bootstrap instead of corrupting frames mid-run.
//
// It also carries the rank's shm advertisement — a host identity and a
// segment directory (both empty when shm is off or unsupported). The
// welcome echoes the full maps plus the boot id, and the existing
// ready/go barrier doubles as the lane-creation barrier: every rank
// creates its outbound lane segments before acking ready, so when frGo
// releases the cluster every inbound segment already exists on disk.

// registration is one decoded frRegister frame plus its connection.
type registration struct {
	conn   net.Conn
	br     *bufio.Reader
	rank   int
	n      int
	addr   string
	hash   uint64
	host   string // shm host identity; empty when the rank has no shm
	shmDir string // where the rank creates its outbound segments
}

// bootState carries the control-plane state that outlives bootstrap.
type bootState struct {
	regCh chan registration

	mu       sync.Mutex
	ctrl     []net.Conn // rank 0: control conns indexed by rank (nil for 0)
	ctrlConn net.Conn   // rank > 0: connection to the rendezvous node

	tallies chan tally // rank 0: count reports for the termination waves
}

func ctrlFrame(kind uint8, f func(*wire.Encoder)) []byte {
	var e wire.Encoder
	e.Uint8(kind)
	if f != nil {
		f(&e)
	}
	return e.Bytes()
}

// sendCtrl writes one control frame with its own flush; control traffic is
// rare (a handful of frames per run), so it is never batched.
func sendCtrl(conn net.Conn, body []byte) error {
	bw := bufio.NewWriter(conn)
	if err := writeFrame(bw, body); err != nil {
		return err
	}
	return bw.Flush()
}

// bootstrapRendezvous runs rank 0's side: collect n-1 registrations,
// broadcast the address map, run the ready barrier, release everyone.
func (f *Fab) bootstrapRendezvous(deadline time.Time) error {
	b := f.boot
	b.ctrl = make([]net.Conn, f.n)
	f.addrs[0] = f.ln.Addr().String()
	f.bootID = newBootID()
	f.hostIDs[0], f.shmDirs[0] = f.hostID, f.shmDir
	if f.n == 1 {
		close(f.ready) // no peers to wait for
	}
	timeout := time.NewTimer(time.Until(deadline))
	defer timeout.Stop()
	for got := 0; got < f.n-1; got++ {
		select {
		case r := <-b.regCh:
			if r.rank < 1 || r.rank >= f.n {
				return fmt.Errorf("netfab: registration with rank %d outside [1,%d)", r.rank, f.n)
			}
			if r.n != f.n {
				return fmt.Errorf("netfab: rank %d joined expecting %d nodes, rendezvous has %d", r.rank, r.n, f.n)
			}
			if b.ctrl[r.rank] != nil {
				return fmt.Errorf("netfab: rank %d registered twice", r.rank)
			}
			if r.hash != wire.Hash() {
				return fmt.Errorf("netfab: rank %d has wire registry hash %#x, rendezvous has %#x (binaries differ)",
					r.rank, r.hash, wire.Hash())
			}
			b.ctrl[r.rank] = r.conn
			f.addrs[r.rank] = r.addr
			f.hostIDs[r.rank], f.shmDirs[r.rank] = r.host, r.shmDir
			// The ready ack and later the done report arrive on this
			// connection; one goroutine per peer consumes them.
			go f.ctrlReadLoop(r.conn, r.br, r.rank)
		case <-timeout.C:
			return fmt.Errorf("netfab: bootstrap timeout: %d of %d peers registered", got, f.n-1)
		}
	}
	// Rank 0's outbound lanes are created before the welcome goes out, so
	// its co-located peers can open them as soon as frGo releases them.
	if err := f.createShmLanes(); err != nil {
		return err
	}
	welcome := ctrlFrame(frWelcome, func(e *wire.Encoder) {
		e.Int(f.n)
		for _, a := range f.addrs {
			e.String(a)
		}
		e.Uvarint(wire.Hash())
		e.String(f.bootID)
		for i := 0; i < f.n; i++ {
			e.String(f.hostIDs[i])
			e.String(f.shmDirs[i])
		}
	})
	for rank := 1; rank < f.n; rank++ {
		if err := sendCtrl(b.ctrl[rank], welcome); err != nil {
			return fmt.Errorf("netfab: welcome to rank %d: %w", rank, err)
		}
	}
	// Ready barrier: wait for every peer's ack, then release.
	select {
	case <-f.ready:
	case <-timeout.C:
		return fmt.Errorf("netfab: bootstrap timeout waiting for ready acks")
	case <-f.fail:
		return f.err()
	}
	release := ctrlFrame(frGo, nil)
	for rank := 1; rank < f.n; rank++ {
		if err := sendCtrl(b.ctrl[rank], release); err != nil {
			return fmt.Errorf("netfab: go to rank %d: %w", rank, err)
		}
	}
	// The ready barrier just completed, so every peer's outbound segments
	// exist; open this rank's inbound lanes.
	return f.openShmLanes()
}

// ctrlReadLoop consumes control frames from one peer on rank 0: the ready
// ack during bootstrap, then the count reports of the termination waves.
func (f *Fab) ctrlReadLoop(conn net.Conn, br *bufio.Reader, rank int) {
	for {
		body, err := readFrame(br)
		if err != nil {
			// EOF after the end-of-run barrier is the peer shutting down.
			if !f.closing.Load() && !f.ended() {
				f.fatalf("control link to rank %d lost: %v", rank, err)
			}
			return
		}
		d := wire.NewDecoder(body)
		switch kind := d.Uint8(); kind {
		case frReady:
			f.readyOnce()
		case frDone:
			c := counts{sent: d.Varint(), handled: d.Varint()}
			if d.Err() != nil {
				f.fatalf("bad count report from rank %d: %v", rank, d.Err())
				return
			}
			f.report(tally{rank, c})
		case frAbort:
			origin := d.Int()
			reason := d.String()
			f.fatalf("rank %d aborted: %s", origin, reason)
			return
		default:
			f.fatalf("unexpected control frame %d from rank %d", kind, rank)
			return
		}
	}
}

// ended reports whether the end-of-run barrier has completed.
func (f *Fab) ended() bool {
	select {
	case <-f.done:
		return true
	default:
		return false
	}
}

// readyOnce counts ready acks; when all n-1 peers have acked, the ready
// barrier opens.
func (f *Fab) readyOnce() {
	f.boot.mu.Lock()
	defer f.boot.mu.Unlock()
	f.readyCount++
	if f.readyCount == f.n-1 {
		close(f.ready)
	}
}

// bootstrapJoin runs a non-zero rank's side: dial the rendezvous node with
// retry, register, receive the address map, ack, wait for the release.
func (f *Fab) bootstrapJoin(rendezvous string, deadline time.Time) error {
	conn, err := dialRetry(context.Background(), rendezvous, deadline, f.opts.DialBackoff, f.opts.DialBackoffMax)
	if err != nil {
		return fmt.Errorf("netfab: rendezvous %s: %w", rendezvous, err)
	}
	f.boot.ctrlConn = conn
	reg := ctrlFrame(frRegister, func(e *wire.Encoder) {
		e.Int(f.rank)
		e.Int(f.n)
		e.String(f.ln.Addr().String())
		e.Uvarint(wire.Hash())
		e.String(f.hostID)
		e.String(f.shmDir)
	})
	if err := sendCtrl(conn, reg); err != nil {
		return fmt.Errorf("netfab: register: %w", err)
	}
	br := bufio.NewReader(conn)
	conn.SetReadDeadline(deadline)
	body, err := readFrame(br)
	if err != nil {
		return fmt.Errorf("netfab: waiting for welcome: %w", err)
	}
	d := wire.NewDecoder(body)
	if kind := d.Uint8(); kind != frWelcome {
		return fmt.Errorf("netfab: expected welcome, got frame kind %d", kind)
	}
	n := d.Int()
	if n != f.n {
		return fmt.Errorf("netfab: rendezvous runs %d nodes, this process expects %d", n, f.n)
	}
	for i := 0; i < f.n; i++ {
		f.addrs[i] = d.String()
	}
	hash := d.Uvarint()
	f.bootID = d.String()
	for i := 0; i < f.n; i++ {
		f.hostIDs[i] = d.String()
		f.shmDirs[i] = d.String()
	}
	if d.Err() != nil {
		return fmt.Errorf("netfab: bad welcome: %w", d.Err())
	}
	if hash != wire.Hash() {
		return fmt.Errorf("netfab: wire registry hash mismatch with rendezvous (binaries differ)")
	}
	// Create outbound lane segments before acking ready: the barrier is
	// what guarantees every segment exists before any rank opens or sends.
	if err := f.createShmLanes(); err != nil {
		return err
	}
	if err := sendCtrl(conn, ctrlFrame(frReady, nil)); err != nil {
		return fmt.Errorf("netfab: ready: %w", err)
	}
	body, err = readFrame(br)
	if err != nil {
		return fmt.Errorf("netfab: waiting for go: %w", err)
	}
	if kind := wire.NewDecoder(body).Uint8(); kind != frGo {
		return fmt.Errorf("netfab: expected go, got frame kind %d", kind)
	}
	// frGo means every rank passed the ready barrier, so every co-located
	// peer's outbound segments exist; open this rank's inbound lanes.
	if err := f.openShmLanes(); err != nil {
		return err
	}
	conn.SetReadDeadline(time.Time{})
	// From here the connection carries only the termination waves.
	go func() {
		for {
			body, err := readFrame(br)
			if err != nil {
				if !f.closing.Load() && !f.ended() {
					f.fatalf("control link to rendezvous lost: %v", err)
				}
				return
			}
			d := wire.NewDecoder(body)
			switch kind := d.Uint8(); kind {
			case frProbe:
				if err := sendCtrl(conn, f.countFrame()); err != nil {
					if !f.closing.Load() && !f.ended() {
						f.fatalf("count report: %v", err)
					}
					return
				}
			case frAllDone:
				close(f.done)
				return
			case frAbort:
				origin := d.Int()
				reason := d.String()
				f.fatalf("rank %d aborted: %s", origin, reason)
				return
			}
		}
	}()
	return nil
}

// appDone reports that the local application process returned; the
// report carries the rank's counts and is its part of the first wave.
func (f *Fab) appDone() {
	if f.rank == 0 {
		f.report(tally{0, f.counts()})
		return
	}
	f.boot.mu.Lock()
	conn := f.boot.ctrlConn
	f.boot.mu.Unlock()
	if err := sendCtrl(conn, f.countFrame()); err != nil {
		f.fatalf("done report: %v", err)
	}
}
