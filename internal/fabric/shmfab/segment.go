// Package shmfab implements the fabric over POSIX shared memory: the
// fourth fabric implementation. simfab simulates a cluster in virtual
// time, gofab multiplexes nodes onto goroutines in one address space,
// netfab distributes them across OS processes over TCP — and shmfab
// connects co-located ranks through mmap'd shared segments, one
// single-producer/single-consumer ring-buffer lane per ordered (src,dst)
// pair, so a message between two ranks on the same host is a memory copy
// and a futex wake instead of a trip through the network stack.
//
// Each lane is one segment file (created by the sender, opened by the
// receiver) holding a fixed header, a byte ring of length-prefixed frames,
// and a payload arena. Small messages are written once into the ring;
// large ones are written once into the arena and the ring carries a
// 16-byte offset handoff. The receiver decodes arena frames in place — a
// delivered pack.Float64s or pack.Bytes aliases the shared mapping, so a
// grant composes zero-copy with the borrow-handle API — and releases the
// block back to the sender through fabric.PayloadReleaser when the
// runtime drops the item. Per-link FIFO is a property of the ring, not a
// protocol: frames leave in the order they were written.
//
// The package offers the lane machinery (used by netfab's hybrid mode,
// where co-located pairs of a TCP cluster get shm lanes that each rank
// goroutine polls itself, parking behind a doorbell it flags in the lane
// header) and Cluster, an in-process fabric with all communication
// through real mapped segments — the pure-shm configuration, used by the
// conformance suite, the race detector and the benchmarks. A Cluster
// rank's goroutine is its whole node loop: it polls its inbound lanes
// inline, parks on an in-process doorbell when idle, and Run ends on
// exact quiescence. The lane futex remains for a producer waiting on a
// full ring and for RecvLane.WaitData; no fabric's receive path waits on
// it.
package shmfab

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync/atomic"
	"unsafe"
)

// Segment layout. The header holds the lane's shared state: the ring
// cursors, the futex words and the sleeping flags for both directions of
// the wakeup protocol, and a reinit epoch for fault injection. head and
// tail are monotonically increasing byte offsets (position = offset mod
// ring size); all header words are 8- or 4-byte aligned because the
// mapping is page-aligned and the offsets are fixed.
const (
	segMagic = 0x53414d53484d3031 // "SAMSHM01"

	offMagic   = 0
	offRingSz  = 8
	offArenaSz = 16
	offHead    = 24 // atomic u64: producer publish cursor
	offTail    = 32 // atomic u64: consumer consume cursor
	offCWake   = 40 // atomic u32 futex word: wakes the consumer
	offPWake   = 44 // atomic u32 futex word: wakes the producer
	offCSleep  = 48 // atomic u32: consumer declared itself sleeping
	offPSleep  = 52 // atomic u32: producer declared itself sleeping
	offEpoch   = 56 // atomic u64: lane reinit count (fault injection)
	segHdrSize = 128
)

// segment is one mapped lane file. The creator (the lane's sender) sizes
// and initializes it; the opener (the receiver) validates the header.
type segment struct {
	path    string
	mem     []byte
	creator bool
	ring    []byte // frame ring, segHdrSize .. segHdrSize+ringSize
	arena   []byte // payload arena, after the ring
}

func (s *segment) u64(off int) *atomic.Uint64 {
	return (*atomic.Uint64)(unsafe.Pointer(&s.mem[off]))
}

func (s *segment) u32(off int) *atomic.Uint32 {
	return (*atomic.Uint32)(unsafe.Pointer(&s.mem[off]))
}

// createSegment makes and maps a fresh lane segment.
func createSegment(path string, ringBytes, arenaBytes int) (*segment, error) {
	mem, err := mapCreate(path, segHdrSize+ringBytes+arenaBytes)
	if err != nil {
		return nil, err
	}
	s := &segment{path: path, mem: mem, creator: true}
	binary.LittleEndian.PutUint64(mem[offRingSz:], uint64(ringBytes))
	binary.LittleEndian.PutUint64(mem[offArenaSz:], uint64(arenaBytes))
	// Magic last: an opener that somehow maps a half-initialized file sees
	// a zero magic, not plausible sizes.
	s.u64(offMagic).Store(segMagic)
	s.slice(ringBytes, arenaBytes)
	return s, nil
}

// openSegment maps an existing lane segment and validates its header.
func openSegment(path string) (*segment, error) {
	mem, err := mapOpen(path)
	if err != nil {
		return nil, err
	}
	s := &segment{path: path, mem: mem}
	if len(mem) < segHdrSize || s.u64(offMagic).Load() != segMagic {
		mapClose(mem)
		return nil, fmt.Errorf("shmfab: %s is not a lane segment", path)
	}
	ringBytes := int(binary.LittleEndian.Uint64(mem[offRingSz:]))
	arenaBytes := int(binary.LittleEndian.Uint64(mem[offArenaSz:]))
	if ringBytes <= 0 || arenaBytes < 0 || segHdrSize+ringBytes+arenaBytes != len(mem) {
		mapClose(mem)
		return nil, fmt.Errorf("shmfab: %s has inconsistent sizes (ring %d, arena %d, file %d)",
			path, ringBytes, arenaBytes, len(mem))
	}
	s.slice(ringBytes, arenaBytes)
	return s, nil
}

func (s *segment) slice(ringBytes, arenaBytes int) {
	s.ring = s.mem[segHdrSize : segHdrSize+ringBytes : segHdrSize+ringBytes]
	s.arena = s.mem[segHdrSize+ringBytes : segHdrSize+ringBytes+arenaBytes : segHdrSize+ringBytes+arenaBytes]
}

// close unmaps the segment; the creator also unlinks the file. Call only
// after every goroutine touching the mapping has stopped — access after
// munmap faults.
func (s *segment) close() {
	if s.mem == nil {
		return
	}
	mapClose(s.mem)
	s.mem, s.ring, s.arena = nil, nil, nil
	if s.creator {
		os.Remove(s.path)
	}
}
