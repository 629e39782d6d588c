package barneshut

import (
	"samsys/internal/octlib"
	"samsys/internal/wire"
)

// Wire registration of the message-passing exchange payloads, so RunMP
// works across OS processes on the netfab fabric. Without codecs the
// fabric panics encoding the first box broadcast (samlint's wirereg
// check caught exactly that). The SAM version's shared items — the
// bounding-box accumulator and the tree cells — travel as core values
// and accumulators, so they need codecs too for Run on netfab and
// shmfab.

func encVec3(e *wire.Encoder, v octlib.Vec3) {
	e.Float64(v[0])
	e.Float64(v[1])
	e.Float64(v[2])
}

func decVec3(d *wire.Decoder) octlib.Vec3 {
	return octlib.Vec3{d.Float64(), d.Float64(), d.Float64()}
}

// encBodies writes a body slice in full: cells carry bodies between the
// build and the force phase, so positions and velocities must round-trip.
func encBodies(e *wire.Encoder, bs []octlib.Body) {
	e.Uvarint(uint64(len(bs)))
	for _, b := range bs {
		e.Varint(int64(b.ID))
		e.Float64(b.Mass)
		encVec3(e, b.Pos)
		encVec3(e, b.Vel)
		encVec3(e, b.Acc)
	}
}

func decBodies(d *wire.Decoder) []octlib.Body {
	// A body is at least a one-byte id and ten float64s.
	bs := make([]octlib.Body, d.Len(81))
	for i := range bs {
		b := &bs[i]
		b.ID = d.Int32()
		b.Mass = d.Float64()
		b.Pos, b.Vel, b.Acc = decVec3(d), decVec3(d), decVec3(d)
	}
	return bs
}

func init() {
	wire.Register("bh.bbox",
		func(e *wire.Encoder, b *octlib.BBoxItem) {
			encVec3(e, b.Lo)
			encVec3(e, b.Hi)
			e.Bool(b.Init)
		},
		func(d *wire.Decoder) *octlib.BBoxItem {
			return &octlib.BBoxItem{Lo: decVec3(d), Hi: decVec3(d), Init: d.Bool()}
		})
	wire.Register("bh.cell",
		func(e *wire.Encoder, c *octlib.Cell) {
			e.Varint(int64(c.Path.Level))
			e.Uvarint(c.Path.Bits)
			e.Uint8(uint8(c.Kind))
			e.Float64(c.Size)
			encBodies(e, c.Bodies)
			e.Uint8(c.ChildMask)
			e.Float64(c.Mass)
			encVec3(e, c.COM)
			e.Varint(int64(c.Count))
			e.Bool(c.HasSummaries)
			if !c.HasSummaries {
				return
			}
			for oct := range c.Child {
				s := &c.Child[oct]
				e.Uint8(uint8(s.Kind))
				e.Float64(s.Mass)
				encVec3(e, s.COM)
				encBodies(e, s.Bodies)
			}
		},
		func(d *wire.Decoder) *octlib.Cell {
			c := &octlib.Cell{
				Path:   octlib.Path{Level: d.Int32(), Bits: d.Uvarint()},
				Kind:   octlib.CellKind(d.Uint8()),
				Size:   d.Float64(),
				Bodies: decBodies(d),
			}
			c.ChildMask = d.Uint8()
			c.Mass = d.Float64()
			c.COM = decVec3(d)
			c.Count = d.Int32()
			c.HasSummaries = d.Bool()
			if !c.HasSummaries {
				return c
			}
			for oct := range c.Child {
				s := &c.Child[oct]
				s.Kind = octlib.CellKind(d.Uint8())
				s.Mass = d.Float64()
				s.COM = decVec3(d)
				s.Bodies = decBodies(d)
			}
			return c
		})
	wire.Register("bh.box",
		func(e *wire.Encoder, m mpBoxMsg) {
			e.Int(m.step)
			e.Int(m.from)
			encVec3(e, m.box.Min)
			e.Float64(m.box.Size)
		},
		func(d *wire.Decoder) mpBoxMsg {
			return mpBoxMsg{
				step: d.Int(),
				from: d.Int(),
				box:  octlib.Bounds{Min: decVec3(d), Size: d.Float64()},
			}
		})
	wire.Register("bh.frag",
		func(e *wire.Encoder, m mpFragMsg) {
			e.Int(m.step)
			e.Int(m.from)
			e.Uvarint(uint64(len(m.frag)))
			for _, n := range m.frag {
				e.Float64(n.Mass)
				encVec3(e, n.COM)
				e.Float64(n.Size)
				e.Bool(n.Leaf)
				e.Uvarint(uint64(len(n.Bodies)))
				for _, b := range n.Bodies {
					e.Varint(int64(b.ID))
					e.Float64(b.Mass)
					encVec3(e, b.Pos)
				}
				for _, c := range n.Children {
					e.Varint(int64(c))
				}
			}
		},
		func(d *wire.Decoder) mpFragMsg {
			m := mpFragMsg{step: d.Int(), from: d.Int()}
			// Minimum encoded sizes, not the in-memory fragNodeBytes: a
			// leaf with no bodies is mass+com+size+leaf+len+8 children
			// varints = 50 bytes; a body is id+mass+pos >= 33 bytes.
			cnt := d.Len(50)
			m.frag = make([]fragNode, cnt)
			for i := range m.frag {
				n := &m.frag[i]
				n.Mass = d.Float64()
				n.COM = decVec3(d)
				n.Size = d.Float64()
				n.Leaf = d.Bool()
				nb := d.Len(33)
				n.Bodies = make([]octlib.Body, nb)
				for j := range n.Bodies {
					n.Bodies[j].ID = d.Int32()
					n.Bodies[j].Mass = d.Float64()
					n.Bodies[j].Pos = decVec3(d)
				}
				for c := range n.Children {
					n.Children[c] = d.Int32()
				}
			}
			return m
		})
}
