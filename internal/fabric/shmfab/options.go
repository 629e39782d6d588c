package shmfab

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
)

// Options tunes the lane geometry shared by the in-process Cluster and
// netfab's hybrid mode.
type Options struct {
	// Dir is where lane segment files live. Default: /dev/shm when
	// present (a real memory filesystem), else the OS temp directory.
	Dir string
	// RingBytes sizes each lane's frame ring. Default 1 MiB.
	RingBytes int
	// ArenaBytes sizes each lane's payload arena. Default 8 MiB.
	ArenaBytes int
	// InlineMax is the encoded-body length at which a message switches
	// from an inline ring frame to an arena handoff. Default 512.
	InlineMax int
}

// Option mutates Options.
type Option func(*Options)

// WithDir sets the segment directory.
func WithDir(dir string) Option { return func(o *Options) { o.Dir = dir } }

// WithRingBytes sets the per-lane ring size.
func WithRingBytes(n int) Option { return func(o *Options) { o.RingBytes = n } }

// WithArenaBytes sets the per-lane arena size.
func WithArenaBytes(n int) Option { return func(o *Options) { o.ArenaBytes = n } }

// WithInlineMax sets the inline/arena routing threshold.
func WithInlineMax(n int) Option { return func(o *Options) { o.InlineMax = n } }

// Apply returns o with the given overrides applied and defaults filled.
func (o Options) Apply(opts ...Option) Options {
	for _, fn := range opts {
		fn(&o)
	}
	if o.Dir == "" {
		o.Dir = DefaultDir()
	}
	if o.RingBytes == 0 {
		o.RingBytes = 1 << 20
	}
	if o.ArenaBytes == 0 {
		o.ArenaBytes = 8 << 20
	}
	if o.InlineMax == 0 {
		o.InlineMax = 512
	}
	// Ring and arena sizes must be multiples of 8 so frame and block
	// headers stay aligned at every wrap position.
	o.RingBytes = pad8(o.RingBytes)
	o.ArenaBytes = pad8(o.ArenaBytes)
	return o
}

// DefaultDir returns the default segment directory: /dev/shm when it is a
// directory (Linux), else the OS temp directory.
func DefaultDir() string {
	if fi, err := os.Stat("/dev/shm"); err == nil && fi.IsDir() {
		return "/dev/shm"
	}
	return os.TempDir()
}

// Available reports whether this platform and directory support shm
// lanes: mmap must exist and dir must accept a mapped file. Use it to
// skip shm tests and to gate netfab's automatic fabric selection.
func Available(dir string) bool {
	if !mmapSupported {
		return false
	}
	if dir == "" {
		dir = DefaultDir()
	}
	s, err := createSegment(LanePath(dir, fmt.Sprintf("probe-%d-%d", os.Getpid(), laneSerial.Add(1)), 0, 0), 256, 0)
	if err != nil {
		return false
	}
	s.close()
	return true
}

// laneSerial disambiguates segment names across clusters in one process.
var laneSerial atomic.Uint64

// LanePath names one lane's segment file. id is the cluster's identity —
// the bootstrap id of a hybrid netfab cluster, a pid-qualified serial for
// an in-process Cluster — and must be unique per cluster run so clusters
// sharing a directory cannot collide. Both ends of a lane derive the same
// path from the same (dir, id, src, dst), which is how a receiver finds a
// segment another process created.
func LanePath(dir, id string, src, dst int) string {
	return filepath.Join(dir, fmt.Sprintf("sam-shm-%s-%d-%d.seg", id, src, dst))
}
