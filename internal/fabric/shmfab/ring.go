package shmfab

import (
	"encoding/binary"
	"sync/atomic"
	"time"
)

// The ring carries length-prefixed frames between exactly one producer
// and one consumer. head and tail are monotonic byte offsets into an
// infinite stream; the physical position is offset mod ring size. A frame
// is an 8-byte header (low 32 bits: body length; flag bits above) plus
// the body, padded to 8 bytes so headers stay aligned. Frames never wrap:
// when a frame would cross the end of the ring the producer writes a skip
// frame covering the remainder and starts over at position zero.
//
// Synchronization is the two cursors alone: the producer writes the frame
// bytes, then publishes by storing head; the consumer reads only below
// head and frees space by storing tail. Go's atomics order the plain
// writes before the publishing store on both sides, in-process and across
// processes (the mapping is the same physical memory).
const (
	frameHdr   = 8
	flagSkip   = 1 << 32 // padding frame: no body, jump to ring start
	flagArena  = 1 << 33 // body is a 16-byte arena handoff descriptor
	frameLenMx = 1<<32 - 1
)

func pad8(n int) int { return (n + 7) &^ 7 }

// ring is one direction's view of a segment's frame ring.
type ring struct {
	buf  []byte
	size uint64

	head, tail     *atomic.Uint64
	cwake, pwake   *atomic.Uint32
	csleep, psleep *atomic.Uint32
}

func newRing(s *segment) ring {
	return ring{
		buf: s.ring, size: uint64(len(s.ring)),
		head: s.u64(offHead), tail: s.u64(offTail),
		cwake: s.u32(offCWake), pwake: s.u32(offPWake),
		csleep: s.u32(offCSleep), psleep: s.u32(offPSleep),
	}
}

// fits reports whether a frame with the given body length can ever be
// written to this ring (the padded frame plus a worst-case skip frame).
func (r *ring) fits(bodyLen int) bool {
	return uint64(frameHdr+pad8(bodyLen)) <= r.size
}

// tryWrite appends one frame; false means the ring currently lacks space.
// Producer side only.
func (r *ring) tryWrite(body []byte, arena bool) bool {
	need := uint64(frameHdr + pad8(len(body)))
	h := r.head.Load()
	t := r.tail.Load()
	pos := h % r.size
	total := need
	var skip uint64
	if pos+need > r.size {
		skip = r.size - pos
		total += skip
	}
	if r.size-(h-t) < total {
		return false
	}
	if skip > 0 {
		binary.LittleEndian.PutUint64(r.buf[pos:], flagSkip|(skip-frameHdr))
		h += skip
		pos = 0
	}
	hdr := uint64(len(body))
	if arena {
		hdr |= flagArena
	}
	binary.LittleEndian.PutUint64(r.buf[pos:], hdr)
	copy(r.buf[pos+frameHdr:], body)
	r.head.Store(h + need)
	r.wakeConsumer()
	return true
}

// tryRead returns the next frame's body (aliasing the ring — the caller
// must copy or fully consume it before calling release) without advancing
// tail. Consumer side only.
func (r *ring) tryRead() (body []byte, arena bool, ok bool) {
	for {
		h := r.head.Load()
		t := r.tail.Load()
		if t == h {
			return nil, false, false
		}
		pos := t % r.size
		hdr := binary.LittleEndian.Uint64(r.buf[pos:])
		n := hdr & frameLenMx
		if hdr&flagSkip != 0 {
			r.tail.Store(t + frameHdr + n)
			r.wakeProducer()
			continue
		}
		return r.buf[pos+frameHdr : pos+frameHdr+n], hdr&flagArena != 0, true
	}
}

// release consumes the frame returned by the last tryRead, freeing its
// ring space.
func (r *ring) release(bodyLen int) {
	r.tail.Store(r.tail.Load() + uint64(frameHdr+pad8(bodyLen)))
	r.wakeProducer()
}

// Consumer-sleep word values: a consumer blocked in waitData sleeps on
// the lane futex; a consumer parked behind an external doorbell (netfab's
// hybrid rank loop) is woken by whoever claims the flag.
const (
	consumerFutex  = 1
	consumerParked = 2
)

// wakeConsumer wakes a consumer sleeping on the lane futex.
func (r *ring) wakeConsumer() {
	if r.csleep.Load() == consumerFutex {
		r.cwake.Add(1)
		futexWake(r.cwake)
	}
}

// wakeProducer wakes a producer blocked on a full ring (or arena).
func (r *ring) wakeProducer() {
	if r.psleep.Load() != 0 {
		r.pwake.Add(1)
		futexWake(r.pwake)
	}
}

// empty reports whether the consumer has caught up with the producer.
func (r *ring) empty() bool { return r.tail.Load() == r.head.Load() }

// waitSpace blocks the producer for at most d waiting for the consumer to
// free ring or arena space. The sleeping flag closes the race with
// wakeProducer; the timeout closes what remains of it.
func (r *ring) waitSpace(d time.Duration) {
	r.psleep.Store(1)
	w := r.pwake.Load()
	futexWait(r.pwake, w, d)
	r.psleep.Store(0)
}

// waitData blocks the consumer for at most d waiting for a frame, unless
// one is already there. Reports whether it actually slept.
func (r *ring) waitData(d time.Duration) bool {
	r.csleep.Store(consumerFutex)
	w := r.cwake.Load()
	if !r.empty() {
		r.csleep.Store(0)
		return false
	}
	futexWait(r.cwake, w, d)
	r.csleep.Store(0)
	return true
}
