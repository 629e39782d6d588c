// Package wire is the binary codec the TCP fabric (internal/fabric/netfab)
// uses to move SAM protocol messages and data items between OS processes.
//
// The codec is registry-based and self-describing: every concrete Go type
// that crosses the wire is registered once under a stable string name, and
// an encoded value carries the numeric id of its registration, so a frame
// can be decoded without out-of-band type information. Peers verify at
// bootstrap that they hold identical registries (see Hash), which is the
// moral equivalent of the paper's requirement that every node runs the same
// SPMD binary.
//
// Encodings are deterministic and canonical: integers are minimal-length
// varints (zig-zag for signed), floats are fixed 8-byte little-endian IEEE
// bits, and slices are length-prefixed. The decoder is strict — it rejects
// non-minimal varints, truncated input, unknown type ids and trailing
// garbage — so decode(encode(v)) == v and encode(decode(b)) == b both hold;
// the round-trip fuzz test relies on exactly this property.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"unsafe"
)

// isLE reports whether the host is little-endian. Canonical encodings are
// little-endian on the wire; on a little-endian host bulk float blocks can
// be moved with a single copy (or aliased in place by a zero-copy decoder)
// instead of element-wise byte shuffling.
var isLE = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// Encoder appends canonical binary encodings to a growing buffer. The zero
// value is ready to use.
type Encoder struct {
	b []byte
}

// Bytes returns the encoded buffer. The slice aliases the encoder's
// internal storage.
func (e *Encoder) Bytes() []byte { return e.b }

// Len returns the number of encoded bytes.
func (e *Encoder) Len() int { return len(e.b) }

// Reset discards the buffer contents, retaining capacity.
func (e *Encoder) Reset() { e.b = e.b[:0] }

// encPool recycles Encoders across frames so steady-state encoding does
// not allocate. Buffers above poolCap are dropped on Put so one huge
// data item does not pin its memory for the life of the process.
var encPool = sync.Pool{New: func() any { return new(Encoder) }}

const poolCap = 64 << 10

// GetEncoder returns an empty Encoder from the package pool.
func GetEncoder() *Encoder {
	e := encPool.Get().(*Encoder)
	e.Reset()
	return e
}

// PutEncoder returns e to the pool. The caller must no longer hold any
// slice aliasing e's buffer (Bytes results included).
func PutEncoder(e *Encoder) {
	if e == nil || cap(e.b) > poolCap {
		return
	}
	encPool.Put(e)
}

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(u uint64) { e.b = binary.AppendUvarint(e.b, u) }

// Varint appends a zig-zag signed varint.
func (e *Encoder) Varint(v int64) { e.b = binary.AppendVarint(e.b, v) }

// Int appends an int as a signed varint.
func (e *Encoder) Int(v int) { e.Varint(int64(v)) }

// Uint8 appends one raw byte.
func (e *Encoder) Uint8(v uint8) { e.b = append(e.b, v) }

// Bool appends a bool as one byte (0 or 1).
func (e *Encoder) Bool(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

// Float64 appends the 8-byte little-endian IEEE-754 bits.
func (e *Encoder) Float64(f float64) {
	e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(f))
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

// Bytes appends a length-prefixed byte slice.
func (e *Encoder) BytesLP(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.b = append(e.b, b...)
}

// Raw appends b with no length prefix (for callers that frame themselves).
func (e *Encoder) Raw(b []byte) { e.b = append(e.b, b...) }

// AlignPad appends zero bytes until the buffer length is a multiple of
// align. Padding is part of the canonical form: the decoder's AlignSkip
// consumes exactly the same pad (and rejects nonzero bytes), so the
// round-trip laws still hold. Codecs pad bulk fixed-width blocks to 8 so
// a zero-copy decoder over an 8-aligned buffer can alias them in place.
func (e *Encoder) AlignPad(align int) {
	for len(e.b)%align != 0 {
		e.b = append(e.b, 0)
	}
}

// Float64Block appends the raw little-endian IEEE-754 bytes of f with no
// length prefix; the caller writes the length and an AlignPad(8) first.
// On a little-endian host this is one bulk copy.
func (e *Encoder) Float64Block(f []float64) {
	if len(f) == 0 {
		return
	}
	if isLE {
		e.b = append(e.b, unsafe.Slice((*byte)(unsafe.Pointer(&f[0])), 8*len(f))...)
		return
	}
	for _, v := range f {
		e.Float64(v)
	}
}

// Decoder reads canonical encodings from a buffer. All methods are
// error-latching: after the first failure every subsequent read returns a
// zero value and Err reports the first error.
type Decoder struct {
	b   []byte
	off int
	err error

	alias    bool             // hand out slices aliasing b where layout permits
	aliasPts []unsafe.Pointer // base pointers of every alias handed out
}

// NewDecoder returns a decoder over b. The decoder does not copy b.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// SetAlias switches the decoder into alias mode: BytesLP and Float64Block
// return slices that alias the input buffer instead of copies, when
// alignment and byte order permit. The caller owns b's lifetime — aliased
// results must not outlive it — and can enumerate what escaped via
// Aliases. The shared-memory fabric decodes payload-arena frames this way
// so a delivered value is the arena bytes themselves, not a copy.
func (d *Decoder) SetAlias(on bool) { d.alias = on }

// Aliases returns the base pointer of every slice handed out aliasing the
// input buffer, in decode order. Empty when alias mode is off or nothing
// aliased (misaligned data falls back to copying).
func (d *Decoder) Aliases() []unsafe.Pointer { return d.aliasPts }

// AlignSkip consumes the zero padding an AlignPad(align) wrote, rejecting
// nonzero pad bytes (canonical form).
func (d *Decoder) AlignSkip(align int) {
	if d.err != nil {
		return
	}
	pad := (align - d.off%align) % align
	if d.Remaining() < pad {
		d.Failf("truncated alignment padding")
		return
	}
	for i := 0; i < pad; i++ {
		if d.b[d.off+i] != 0 {
			d.Failf("nonzero alignment padding")
			return
		}
	}
	d.off += pad
}

// Float64Block reads n fixed 8-byte little-endian floats written by
// Float64Block. In alias mode, on a little-endian host, with the data
// 8-aligned in memory, the returned slice aliases the input buffer;
// otherwise it is a fresh copy.
func (d *Decoder) Float64Block(n int) []float64 {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.Remaining()/8 < n {
		d.Failf("truncated float64 block")
		return nil
	}
	start := d.off
	d.off += 8 * n
	if n == 0 {
		return make([]float64, 0)
	}
	p := unsafe.Pointer(&d.b[start])
	if d.alias && isLE && uintptr(p)%8 == 0 {
		d.aliasPts = append(d.aliasPts, p)
		return unsafe.Slice((*float64)(p), n)
	}
	f := make([]float64, n)
	if isLE {
		copy(unsafe.Slice((*byte)(unsafe.Pointer(&f[0])), 8*n), d.b[start:d.off])
	} else {
		for i := range f {
			f[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.b[start+8*i:]))
		}
	}
	return f
}

// Err returns the first decode error, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.b) - d.off }

// Failf latches a decode error (used by registered decode functions to
// reject semantically invalid input).
func (d *Decoder) Failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: "+format, args...)
	}
}

// Uvarint reads an unsigned varint, rejecting truncated, overlong
// (non-minimal) and overflowing encodings.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	var x uint64
	var s uint
	for i := 0; ; i++ {
		if d.off >= len(d.b) {
			d.Failf("truncated varint")
			return 0
		}
		c := d.b[d.off]
		d.off++
		if c < 0x80 {
			if i == 9 && c > 1 {
				d.Failf("varint overflows uint64")
				return 0
			}
			if i > 0 && c == 0 {
				d.Failf("non-minimal varint")
				return 0
			}
			return x | uint64(c)<<s
		}
		if i == 9 {
			d.Failf("varint overflows uint64")
			return 0
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
}

// Varint reads a zig-zag signed varint.
func (d *Decoder) Varint() int64 {
	u := d.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Int reads a signed varint as an int.
func (d *Decoder) Int() int { return int(d.Varint()) }

// Int32 reads a signed varint that must fit an int32, so a value written
// with Varint(int64(x)) decodes back to x and nothing else does.
func (d *Decoder) Int32() int32 {
	v := d.Varint()
	if int64(int32(v)) != v {
		d.Failf("varint %d overflows int32", v)
		return 0
	}
	return int32(v)
}

// Uint8 reads one raw byte.
func (d *Decoder) Uint8() uint8 {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.Failf("truncated byte")
		return 0
	}
	c := d.b[d.off]
	d.off++
	return c
}

// Bool reads a bool, rejecting any byte other than 0 or 1 (canonical form).
func (d *Decoder) Bool() bool {
	c := d.Uint8()
	if d.err != nil {
		return false
	}
	if c > 1 {
		d.Failf("non-canonical bool byte %d", c)
		return false
	}
	return c == 1
}

// Float64 reads 8 little-endian IEEE-754 bytes.
func (d *Decoder) Float64() float64 {
	if d.err != nil {
		return 0
	}
	if d.Remaining() < 8 {
		d.Failf("truncated float64")
		return 0
	}
	u := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return math.Float64frombits(u)
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.lpLen(1)
	if d.err != nil {
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

// BytesLP reads a length-prefixed byte slice. The result is a copy, or an
// alias of the input buffer in alias mode (see SetAlias).
func (d *Decoder) BytesLP() []byte {
	n := d.lpLen(1)
	if d.err != nil {
		return nil
	}
	if d.alias && n > 0 {
		b := d.b[d.off : d.off+n : d.off+n]
		d.aliasPts = append(d.aliasPts, unsafe.Pointer(&b[0]))
		d.off += n
		return b
	}
	b := make([]byte, n)
	copy(b, d.b[d.off:d.off+n])
	d.off += n
	return b
}

// Len reads a length prefix for a sequence whose elements occupy at least
// elemSize bytes each, bounding it by the remaining input so hostile
// lengths cannot force huge allocations.
func (d *Decoder) Len(elemSize int) int { return d.lpLen(elemSize) }

func (d *Decoder) lpLen(elemSize int) int {
	u := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if elemSize < 1 {
		elemSize = 1
	}
	if u > uint64(d.Remaining()/elemSize) {
		d.Failf("length %d exceeds remaining input", u)
		return 0
	}
	return int(u)
}
