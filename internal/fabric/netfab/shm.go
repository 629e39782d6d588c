package netfab

import (
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"

	"samsys/internal/fabric"
	"samsys/internal/fabric/shmfab"
	"samsys/internal/trace"
)

// Hybrid shared-memory support. Under Options.Shm = ShmAuto every rank
// advertises a host identity and a segment directory when it registers;
// the welcome broadcast carries the full maps plus a cluster-unique boot
// id. A rank then creates one outbound shmfab lane per co-located peer
// and binds its doorbell before entering the ready barrier — so by the
// time frGo releases the cluster, every lane segment and doorbell exists
// — and opens its inbound lanes right after the barrier. ctx.Send routes
// to the lane when one exists and to TCP otherwise; the rank goroutine
// polls its inbound lanes itself (see ctx.sweep), exactly like a
// shmfab.Cluster rank. The control plane (bootstrap, termination waves,
// abort propagation) always stays on TCP, which is what keeps rank-crash
// teardown bounded even for pure-shm pairs.

// bootSerial disambiguates boot ids of clusters spawned by one process.
var bootSerial atomic.Uint64

// newBootID names one cluster run; rank 0 generates it and the welcome
// broadcast distributes it. Unique per (rendezvous process, run) so two
// clusters sharing a segment directory cannot collide on lane paths. The
// random part keeps doorbell names apart across pid namespaces: the
// abstract socket namespace belongs to the network namespace, which two
// containers can share while each numbers its own processes from 1.
func newBootID() string {
	return fmt.Sprintf("%d-%d-%x", os.Getpid(), bootSerial.Add(1), rand.Uint64())
}

// resolveShm fixes this rank's host identity and segment directory from
// the options: empty hostID means the rank does not participate in shm
// pairing (mode off, platform unsupported, or no usable identity).
func (f *Fab) resolveShm() {
	if f.opts.Shm == ShmOff {
		return
	}
	hid := f.opts.HostID
	if f.opts.ShmHosts != nil {
		hid = ""
		if f.rank < len(f.opts.ShmHosts) {
			hid = f.opts.ShmHosts[f.rank]
		}
	} else if hid == "" {
		hid, _ = os.Hostname()
	}
	if hid == "" {
		return
	}
	dir := f.opts.ShmDir
	if dir == "" {
		dir = shmfab.DefaultDir()
	}
	if !shmfab.Available(dir) {
		return
	}
	f.hostID, f.shmDir = hid, dir
}

// shmPeer reports whether dst is a co-located distinct rank.
func (f *Fab) shmPeer(dst int) bool {
	return dst != f.rank && f.hostID != "" && f.hostIDs[dst] == f.hostID
}

// createShmLanes creates this rank's outbound lane segments and, if it
// has any, its doorbell. Runs after the host map is known and before the
// ready barrier, so every segment and doorbell exists before any rank
// starts sending.
func (f *Fab) createShmLanes() error {
	paired := false
	for dst := 0; dst < f.n; dst++ {
		if !f.shmPeer(dst) {
			continue
		}
		paired = true
		f.peerBells[dst] = &net.UnixAddr{Name: bellName(f.bootID, dst), Net: "unixgram"}
		path := shmfab.LanePath(f.shmDir, f.bootID, f.rank, dst)
		sl, err := shmfab.NewSendLane(path, f.opts.ShmRing, f.opts.ShmArena, f.opts.ShmInline)
		if err != nil {
			return fmt.Errorf("netfab: shm lane %d->%d: %w", f.rank, dst, err)
		}
		d := dst
		sl.OnSend = func(seq int64, size, bodyLen int, arenaCand bool) {
			if tr := f.tr; tr != nil {
				var a2 int64
				if arenaCand {
					a2 = 1
				}
				tr.Emit(trace.Event{Node: int32(f.rank), Kind: trace.EvShmSend,
					Peer: int32(d), Size: int64(size), Aux: seq, Aux2: a2})
			}
		}
		sl.OnArena = func(bytes, liveBlocks int) {
			if tr := f.tr; tr != nil {
				tr.Emit(trace.Event{Node: int32(f.rank), Kind: trace.EvShmArena,
					Peer: int32(d), Aux: int64(bytes), Aux2: int64(liveBlocks)})
			}
		}
		f.shmSend[dst] = sl
	}
	if !paired {
		return nil
	}
	return f.openBell()
}

// openShmLanes opens this rank's inbound lanes, in each sender's
// advertised directory. Runs after the frGo barrier, which guarantees
// every sender has created its segments.
func (f *Fab) openShmLanes() error {
	for src := 0; src < f.n; src++ {
		if !f.shmPeer(src) {
			continue
		}
		path := shmfab.LanePath(f.shmDirs[src], f.bootID, src, f.rank)
		rl, err := shmfab.OpenRecvLane(path)
		if err != nil {
			return fmt.Errorf("netfab: shm lane %d->%d: %w", src, f.rank, err)
		}
		f.shmRecv[src] = rl
		f.lanes = append(f.lanes, inLane{src, rl})
	}
	f.spin = spinBudget(len(f.lanes)+1, runtime.GOMAXPROCS(0))
	return nil
}

// spinBudget is how many empty sweeps a rank makes before it parks, given
// how many ranks share its host and how many CPUs its process may use. A
// doorbell wake crosses the kernel and the netpoller, so a rank that
// parks on every short round trip pays that latency twice whenever its
// peer has parked too. Spinning longer rides those waits out, but only
// while every co-located rank can run at once: a spinning process that
// shares a CPU with the peer it waits for only delays that peer, since
// its Gosched yields to its own goroutines and not to other processes.
func spinBudget(colocated, procs int) int {
	if colocated <= procs {
		return longSpin
	}
	return shortSpin
}

// inLane is one inbound shm lane and the rank that sends on it.
type inLane struct {
	src  int
	lane *shmfab.RecvLane
}

// Doorbells. A parked rank (see ctx.park) blocks on its 1-slot bell
// channel. A lane peer rings it by writing a datagram to the rank's
// doorbell socket, whose reader goroutine waits in the Go netpoller —
// holding no P, so a parked rank leaves the CPU to the timers, the TCP
// control plane and other ranks — and knocks on the channel. Peers in
// the same process and in other processes ring the same way.

var bellByte = []byte{1}

// bellName is rank's doorbell address for one cluster run: a name in the
// abstract socket namespace on Linux, which needs no file and cannot
// outgrow sun_path the way a socket under a deep segment directory can.
func bellName(bootID string, rank int) string {
	name := fmt.Sprintf("sam-bell-%s-%d", bootID, rank)
	if runtime.GOOS == "linux" {
		return "@" + name
	}
	return filepath.Join(os.TempDir(), name)
}

// openBell binds this rank's doorbell and starts its reader.
func (f *Fab) openBell() error {
	name := bellName(f.bootID, f.rank)
	conn, err := net.ListenUnixgram("unixgram", &net.UnixAddr{Name: name, Net: "unixgram"})
	if err != nil {
		return fmt.Errorf("netfab: doorbell %s: %w", name, err)
	}
	f.bellConn = conn
	f.bell = make(chan struct{}, 1)
	f.bellDone = make(chan struct{})
	go func() {
		defer close(f.bellDone)
		var buf [1]byte
		for {
			if _, _, err := conn.ReadFromUnix(buf[:]); err != nil {
				return // closed by shutdown
			}
			knock(f.bell)
		}
	}()
	return nil
}

// closeBell closes the doorbell socket and waits for its reader to end.
func (f *Fab) closeBell() {
	if f.bellConn == nil {
		return
	}
	name := f.bellConn.LocalAddr().String()
	f.bellConn.Close()
	<-f.bellDone
	if name[0] != '@' {
		os.Remove(name)
	}
	f.bellConn = nil
}

// ring wakes shm peer dst if it is parked. The lane flag makes this free
// while dst is busy. A parked rank has no timeout to fall back on, so a
// lost wake would hang the run: a failed write is fatal unless the run is
// already ending or failing, when the peer may have closed its doorbell.
func (f *Fab) ring(dst int) {
	if !f.shmSend[dst].TakeParked() {
		return
	}
	if _, err := f.bellConn.WriteToUnix(bellByte, f.peerBells[dst]); err != nil {
		if f.closing.Load() || f.ended() || f.err() != nil {
			return
		}
		f.fatalf("doorbell of rank %d: %v", dst, err)
		panic(f.err())
	}
}

// knock fills a 1-slot bell channel unless it is already full.
func knock(bell chan struct{}) {
	select {
	case bell <- struct{}{}:
	default:
	}
}

// closeShmLanes unmaps every lane. Only the rank goroutine touches the
// lanes, so call it once the node loop has stopped (or never started):
// touching a segment after unmap faults.
func (f *Fab) closeShmLanes() {
	for i, l := range f.shmRecv {
		if l != nil {
			l.Close()
			f.shmRecv[i] = nil
		}
	}
	for i, l := range f.shmSend {
		if l != nil {
			l.Close()
			f.shmSend[i] = nil
		}
	}
}

// ReleasePayload returns item's arena block (if any) to the inbound lane
// that delivered it. Implements fabric.PayloadReleaser for the local
// rank; items that never rode an shm lane fall through in a few pointer
// compares.
func (f *Fab) ReleasePayload(node int, item any) {
	if node != f.rank {
		return
	}
	for _, l := range f.shmRecv {
		if l != nil && l.Release(item) {
			return
		}
	}
}

// ReleasePayload forwards to the owning rank's Fab.
func (cl *Cluster) ReleasePayload(node int, item any) {
	if node >= 0 && node < len(cl.fabs) {
		cl.fabs[node].ReleasePayload(node, item)
	}
}

var _ fabric.PayloadReleaser = (*Fab)(nil)
var _ fabric.PayloadReleaser = (*Cluster)(nil)
