package netfab

import (
	"bytes"
	"testing"

	"samsys/internal/pack"
	"samsys/internal/wire"
)

// frameSeeds returns one canonical encoding per frame shape the transport
// ships, including the reliability frames: frAck, the resume form of
// frHello, and frAbort; and the termination waves' frProbe and counts.
func frameSeeds() [][]byte {
	var seeds [][]byte
	add := func(build func(e *wire.Encoder)) {
		var e wire.Encoder
		build(&e)
		seeds = append(seeds, append([]byte(nil), e.Bytes()...))
	}
	add(func(e *wire.Encoder) {
		e.Uint8(frRegister)
		e.Int(2)
		e.Int(4)
		e.String("127.0.0.1:7002")
		e.Uvarint(0xfeed)
	})
	add(func(e *wire.Encoder) { e.Uint8(frReady) })
	add(func(e *wire.Encoder) {
		e.Uint8(frDone)
		e.Varint(1200) // sent
		e.Varint(1187) // handled
	})
	add(func(e *wire.Encoder) { e.Uint8(frProbe) })
	add(func(e *wire.Encoder) { e.Uint8(frAllDone) })
	add(func(e *wire.Encoder) {
		e.Uint8(frHello)
		e.Int(1)
		e.Bool(false)
	})
	add(func(e *wire.Encoder) {
		e.Uint8(frHello)
		e.Int(3)
		e.Bool(true) // resume after a link reset
	})
	add(func(e *wire.Encoder) {
		e.Uint8(frData)
		e.Int(64)
		e.Varint(17)
		e.Any(pack.Ints{1, 2, 3})
	})
	add(func(e *wire.Encoder) {
		e.Uint8(frAck)
		e.Varint(4096)
	})
	add(func(e *wire.Encoder) {
		e.Uint8(frAbort)
		e.Int(1)
		e.String("fault injection: scheduled crash after send 30")
	})
	return seeds
}

// FuzzFrameDecode feeds arbitrary bytes through the same decode sequences
// the transport loops use. Decoding must never panic, errors must surface
// through Decoder.Err, and any fully-accepted frame must re-encode to
// exactly its input — the canonical-encoding property the resend window
// relies on when it replays frames after a link reset.
func FuzzFrameDecode(f *testing.F) {
	for _, s := range frameSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		d := wire.NewDecoder(body)
		var e wire.Encoder
		switch kind := d.Uint8(); kind {
		case frRegister:
			rank, n, addr, hash := d.Int(), d.Int(), d.String(), d.Uvarint()
			e.Uint8(frRegister)
			e.Int(rank)
			e.Int(n)
			e.String(addr)
			e.Uvarint(hash)
		case frReady, frProbe, frAllDone:
			e.Uint8(kind)
		case frDone:
			sent, handled := d.Varint(), d.Varint()
			e.Uint8(frDone)
			e.Varint(sent)
			e.Varint(handled)
		case frHello:
			src, resume := d.Int(), d.Bool()
			e.Uint8(frHello)
			e.Int(src)
			e.Bool(resume)
		case frData:
			size, seq, payload := d.Int(), d.Varint(), d.Any()
			if d.Err() != nil {
				return
			}
			e.Uint8(frData)
			e.Int(size)
			e.Varint(seq)
			e.Any(payload)
		case frAck:
			e.Uint8(frAck)
			e.Varint(d.Varint())
		case frAbort:
			origin, reason := d.Int(), d.String()
			e.Uint8(frAbort)
			e.Int(origin)
			e.String(reason)
		default:
			return // unknown kinds are fatal protocol noise at runtime
		}
		if d.Err() != nil || d.Remaining() != 0 {
			return // rejected input is fine; silent acceptance is not
		}
		if !bytes.Equal(e.Bytes(), body) {
			t.Fatalf("accepted frame is not canonical:\n  in:  %x\n  out: %x", body, e.Bytes())
		}
	})
}
