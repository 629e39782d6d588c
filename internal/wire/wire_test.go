package wire_test

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"samsys/internal/core"
	"samsys/internal/pack"
	"samsys/internal/wire"
)

// TestInt32RejectsOverflow checks that Int32 decodes every int32 a
// Varint wrote and fails on a varint outside the int32 range instead of
// truncating it, which would accept a non-canonical frame.
func TestInt32RejectsOverflow(t *testing.T) {
	for _, v := range []int32{0, -1, math.MinInt32, math.MaxInt32} {
		var e wire.Encoder
		e.Varint(int64(v))
		d := wire.NewDecoder(e.Bytes())
		if got := d.Int32(); got != v || d.Err() != nil {
			t.Errorf("Int32 of %d: got %d, err %v", v, got, d.Err())
		}
	}
	for _, v := range []int64{math.MaxInt32 + 1, math.MinInt32 - 1, math.MaxInt64} {
		var e wire.Encoder
		e.Varint(v)
		d := wire.NewDecoder(e.Bytes())
		if got := d.Int32(); d.Err() == nil {
			t.Errorf("Int32 accepted %d as %d", v, got)
		}
	}
}

func TestPrimitivesRoundTrip(t *testing.T) {
	var e wire.Encoder
	e.Uvarint(0)
	e.Uvarint(300)
	e.Uvarint(math.MaxUint64)
	e.Varint(0)
	e.Varint(-1)
	e.Varint(math.MinInt64)
	e.Varint(math.MaxInt64)
	e.Uint8(0xab)
	e.Bool(true)
	e.Bool(false)
	e.Float64(-1.5e300)
	e.Float64(math.NaN())
	e.String("héllo")
	e.BytesLP([]byte{1, 2, 3})

	d := wire.NewDecoder(e.Bytes())
	if got := d.Uvarint(); got != 0 {
		t.Errorf("uvarint: got %d", got)
	}
	if got := d.Uvarint(); got != 300 {
		t.Errorf("uvarint: got %d", got)
	}
	if got := d.Uvarint(); got != math.MaxUint64 {
		t.Errorf("uvarint: got %d", got)
	}
	for _, want := range []int64{0, -1, math.MinInt64, math.MaxInt64} {
		if got := d.Varint(); got != want {
			t.Errorf("varint: got %d want %d", got, want)
		}
	}
	if got := d.Uint8(); got != 0xab {
		t.Errorf("uint8: got %#x", got)
	}
	if got := d.Bool(); !got {
		t.Errorf("bool: got false")
	}
	if got := d.Bool(); got {
		t.Errorf("bool: got true")
	}
	if got := d.Float64(); got != -1.5e300 {
		t.Errorf("float64: got %g", got)
	}
	if got := d.Float64(); !math.IsNaN(got) {
		t.Errorf("float64: got %g, want NaN", got)
	}
	if got := d.String(); got != "héllo" {
		t.Errorf("string: got %q", got)
	}
	if got := d.BytesLP(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("bytes: got %v", got)
	}
	if d.Err() != nil {
		t.Fatalf("decode error: %v", d.Err())
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left over", d.Remaining())
	}
}

func TestDecoderStrictness(t *testing.T) {
	cases := map[string][]byte{
		"truncated varint":   {0x80},
		"non-minimal varint": {0x80, 0x00}, // 0 encoded in two bytes
		"varint overflow":    {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
	}
	for name, b := range cases {
		d := wire.NewDecoder(b)
		d.Uvarint()
		if d.Err() == nil {
			t.Errorf("%s: decoder accepted %v", name, b)
		}
	}
	d := wire.NewDecoder([]byte{2})
	d.Bool()
	if d.Err() == nil {
		t.Errorf("non-canonical bool accepted")
	}
	// A hostile length prefix must not force a huge allocation.
	var e wire.Encoder
	e.Uvarint(1 << 40)
	d = wire.NewDecoder(e.Bytes())
	d.Len(8)
	if d.Err() == nil {
		t.Errorf("oversized length accepted")
	}
}

func TestItemsRoundTrip(t *testing.T) {
	items := []any{
		pack.Bytes("hello"),
		pack.Bytes{},
		pack.Float64s{1, -2.5, math.Inf(1)},
		pack.Ints{0, -1, 1 << 40},
	}
	for _, it := range items {
		b := wire.Marshal(it)
		got, err := wire.Unmarshal(b)
		if err != nil {
			t.Fatalf("%T: unmarshal: %v", it, err)
		}
		if !reflect.DeepEqual(got, it) {
			t.Errorf("%T: round trip %v -> %v", it, it, got)
		}
		// Decoded items must be fresh copies, never aliases of the input.
		if b2 := wire.Marshal(got); !bytes.Equal(b, b2) {
			t.Errorf("%T: re-encode differs", it)
		}
	}
}

// TestCoreSamplesRoundTrip pins encode->decode->re-encode identity for one
// sample of every core protocol message (the same samples that seed the
// fuzz corpus).
func TestCoreSamplesRoundTrip(t *testing.T) {
	for i, b := range core.WireSamples() {
		v, err := wire.Unmarshal(b)
		if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		if got := wire.Marshal(v); !bytes.Equal(got, b) {
			t.Errorf("sample %d (%T): re-encode differs\n  in:  %x\n  out: %x", i, v, b, got)
		}
	}
}

func TestUnknownTypeID(t *testing.T) {
	var e wire.Encoder
	e.Uvarint(1 << 30) // far beyond any registered id
	if _, err := wire.Unmarshal(e.Bytes()); err == nil {
		t.Fatal("unknown type id accepted")
	}
}

func TestUnregisteredPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("encoding an unregistered type did not panic")
		}
	}()
	type notRegistered struct{ X int }
	wire.Marshal(notRegistered{1})
}

func TestHashStable(t *testing.T) {
	if wire.Hash() != wire.Hash() {
		t.Fatal("registry hash not stable")
	}
	if len(wire.Names()) < 25 {
		t.Fatalf("expected full registry (pack + core + apps), got %d names: %v",
			len(wire.Names()), wire.Names())
	}
}
