package netfab

import (
	"runtime"
	"time"

	"samsys/internal/wire"
)

// Exact termination. Once every application body has returned, the only
// activity left in a cluster is handling messages, and a message can only
// be sent while another is being handled. Each rank counts the data
// messages it has sent and the ones it has fully handled (counted after
// the handler returns, so a message's own sends are counted first), over
// every link: TCP, shm and self. A resent TCP frame is counted once, at
// Send, and a suppressed duplicate never reaches the handler. The run is
// over exactly when the cluster-wide sums are equal: nothing is in flight
// or being handled, and nothing can be sent again.
//
// The sums cannot be read at one instant, so rank 0 runs Mattern's
// four-counter waves over the TCP control plane. The done reports are the
// first wave; each later wave sends frProbe to every peer, whose control
// reader answers with its current counts. When two consecutive waves
// return the same counts for every rank, no counter changed between a
// rank's two readings, and all those intervals contain the moment the
// second wave began — so the sums read then are the sums at that moment,
// and if they are equal the cluster had terminated. Rank 0 then closes
// its done channel and sends frAllDone; nothing is left to drain.

// A cluster whose ranks are idle ends in two probe waves. A wave that
// still finds a rank handling messages says the tail is long; after
// eagerWaves of them rank 0 pauses between waves, doubling the pause up
// to maxWavePause, so a long tail is not met with a steady stream of
// probes, each of which wakes a control reader on every peer.
const (
	eagerWaves   = 4
	minWavePause = 10 * time.Microsecond
	maxWavePause = 100 * time.Microsecond
)

// counts is one rank's termination counters at one reading.
type counts struct{ sent, handled int64 }

// tally is one rank's answer to a wave.
type tally struct {
	rank int
	counts
}

// counts reads this rank's counters.
func (f *Fab) counts() counts {
	return counts{sent: f.sent.Load(), handled: f.handled.Load()}
}

// countFrame is a peer's frDone: its counters now.
func (f *Fab) countFrame() []byte {
	c := f.counts()
	return ctrlFrame(frDone, func(e *wire.Encoder) {
		e.Varint(c.sent)
		e.Varint(c.handled)
	})
}

// report hands one rank's counts to rank 0's wave loop.
func (f *Fab) report(t tally) {
	select {
	case f.boot.tallies <- t:
	case <-f.stop:
	}
}

// detectTermination runs on rank 0 for the length of Run: it collects
// the done reports, then probes in waves until two consecutive waves
// agree and balance, and ends the run. A failure or shutdown ends it.
func (f *Fab) detectTermination() {
	probe := ctrlFrame(frProbe, nil)
	prev := make([]counts, f.n)
	cur := make([]counts, f.n)
	var pause time.Duration
	for wave := 0; ; wave++ {
		want := f.n // the done reports, rank 0's own included
		if wave > 0 {
			for rank := 1; rank < f.n; rank++ {
				if err := sendCtrl(f.boot.ctrl[rank], probe); err != nil {
					f.fatalf("termination probe to rank %d: %v", rank, err)
					return
				}
			}
			cur[0] = f.counts()
			want = f.n - 1
		}
		for ; want > 0; want-- {
			select {
			case t := <-f.boot.tallies:
				cur[t.rank] = t.counts
			case <-f.fail:
				return
			case <-f.stop:
				return
			}
		}
		if wave > 0 && terminated(prev, cur) {
			f.allDone()
			return
		}
		prev, cur = cur, prev
		switch {
		case wave >= eagerWaves:
			pause = min(max(2*pause, minWavePause), maxWavePause)
			time.Sleep(pause)
		case f.n == 1:
			// No peer round trip paces the waves; let the rank run.
			runtime.Gosched()
		}
	}
}

// terminated reports whether two consecutive waves read the same counts
// on every rank and the sums balance.
func terminated(prev, cur []counts) bool {
	var sent, handled int64
	for i, c := range cur {
		if c != prev[i] {
			return false
		}
		sent += c.sent
		handled += c.handled
	}
	return sent == handled
}

// allDone ends the run on every rank. The barrier completes locally
// before the peers are told: a peer may exit as soon as it reads
// frAllDone, and the EOF on its control link must read as the end of the
// run, not as a lost link. shutdown takes b.mu to close these links, so
// the sends below still finish first.
func (f *Fab) allDone() {
	b := f.boot
	b.mu.Lock()
	defer b.mu.Unlock()
	close(f.done)
	alldone := ctrlFrame(frAllDone, nil)
	for rank := 1; rank < f.n; rank++ {
		if err := sendCtrl(b.ctrl[rank], alldone); err != nil {
			f.fatalf("alldone to rank %d: %v", rank, err)
		}
	}
}
