// Package store turns a SAM cluster into a long-lived shared-object
// service: named sessions owned by tenants, external clients speaking a
// request/response protocol over netfab client connections, and every
// request executed inside the cluster as a short task on the owning
// rank's application goroutine — so the SAM trace invariants (single
// assignment, exclusive accumulator migration, conservation) keep holding
// across a workload no single program embodies.
package store

import (
	"samsys/internal/core"
	"samsys/internal/wire"
)

// Request opcodes. The two-phase pair OpAcquire/OpCommit exposes the
// accumulator's exclusive-migration protocol to clients directly: the
// grant pins the accumulator on the session's home rank until the client
// commits (or disconnects, which commits unchanged — see the server's
// disconnect path).
const (
	OpOpen        uint8 = 1  // open or attach to a session
	OpClose       uint8 = 2  // close the session, destroying its values
	OpCreate      uint8 = 3  // create a value (Acc=false) or accumulator (Acc=true)
	OpUse         uint8 = 4  // read a value, consuming one declared use
	OpUpdate      uint8 = 5  // one-shot accumulator update (elementwise add)
	OpAcquire     uint8 = 6  // two-phase: acquire exclusive accumulator access
	OpCommit      uint8 = 7  // two-phase: overwrite and release the grant
	OpReadChaotic uint8 = 8  // unsynchronized snapshot of an accumulator
	OpRename      uint8 = 9  // recycle a drained value's storage under a new name
	OpList        uint8 = 10 // list the session's rank-local objects
	OpStats       uint8 = 11 // snapshot per-tenant counters on this rank
)

// Rejection reason codes, carried in trace EvClientReject Aux2 and at the
// head of Resp.Err.
const (
	RejBadRequest  = 1 // malformed or out-of-range fields
	RejWrongRank   = 2 // session homes on another rank (Resp.Home says where)
	RejNoSession   = 3 // session not open
	RejQuota       = 4 // tenant over a session or byte quota
	RejExists      = 5 // name already created in this session's rank registry
	RejUnknownName = 6 // name not in this session's rank registry
	RejKind        = 7 // value op on an accumulator or vice versa
	RejState       = 8 // op illegal in current state (e.g. commit without grant)
)

// Req is one client request. Tenant and Sess route it: the session homes
// on HomeRank(Tenant, Sess, n), and every object name is namespaced by the
// tenant (Name.Z = TenantZ(Tenant)), so tenants cannot collide or reach
// each other's objects. Tag/X/Y name the object within the tenant; Uses
// declares a value's read budget at create and rename. Val carries the
// payload for Create/Update/Commit and the declared length for Rename.
type Req struct {
	ID     int64  // echoed in the response; client-chosen, per-conn unique
	Op     uint8  // one of Op*
	Tenant string // tenant id; also the accounting bucket
	Sess   string // session name within the tenant

	Tag  uint8 // object name within the tenant: core.Name{Tag, X, Y}
	X, Y int32

	NewTag       uint8 // rename target name
	NewX, NewY   int32
	Uses         int64 // declared uses for Create/Rename of a value
	Acc          bool  // Create: accumulator instead of value
	ExplicitDrop bool  // Close: drop even with other conns attached

	Val []float64 // payload (Create/Update/Commit) or probe (len for Rename)
}

// Resp answers one Req. OK=false carries Err; RejWrongRank additionally
// carries Home, the rank the client should retry against. Val returns
// object data for Use/ReadChaotic/Acquire and the post-update contents for
// Update. Names answers List; Tenants answers Stats.
type Resp struct {
	ID   int64
	OK   bool
	Err  string
	Rej  uint8 // reason code when !OK (Rej*)
	Home int32 // correct rank for RejWrongRank

	Val     []float64
	Names   []OName
	Tenants []TenantStat
}

// OName is one object name within a tenant, as listed by OpList.
type OName struct {
	Tag  uint8
	X, Y int32
	Acc  bool
}

// TenantStat is one tenant's rank-local counter snapshot.
type TenantStat struct {
	Tenant                     string
	Opens, Attaches, Closes    int64
	Creates, Uses, Updates     int64
	Acquires, Commits, Chaotic int64
	Renames, Lists, Rejected   int64
	BytesIn, BytesOut          int64
	LiveBytes, Sessions        int64
}

// fnv1a hashes s with 64-bit FNV-1a; the store's homing and namespacing
// both derive from it so every client and rank agrees.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// HomeRank maps a (tenant, session) pair to the rank that owns it. Client
// libraries route requests with the same function the server validates
// with, so a correctly routed request is never bounced.
func HomeRank(tenant, sess string, n int) int {
	return int(fnv1a(tenant+"/"+sess) % uint64(n))
}

// TenantZ is the tenant's object-namespace discriminator: every object a
// tenant creates carries it in Name.Z, so two tenants using the same
// Tag/X/Y address distinct SAM names.
func TenantZ(tenant string) int32 { return int32(uint32(fnv1a(tenant))) }

// ObjName builds the SAM name for a tenant's object.
func ObjName(tenant string, tag uint8, x, y int32) core.Name {
	return core.Name{Tag: tag, X: x, Y: y, Z: TenantZ(tenant)}
}

func encOName(e *wire.Encoder, o OName) {
	e.Uint8(o.Tag)
	e.Varint(int64(o.X))
	e.Varint(int64(o.Y))
	e.Bool(o.Acc)
}

func decOName(d *wire.Decoder) OName {
	return OName{
		Tag: d.Uint8(),
		X:   d.Int32(),
		Y:   d.Int32(),
		Acc: d.Bool(),
	}
}

func init() {
	wire.Register("store.Req",
		func(e *wire.Encoder, r Req) {
			e.Varint(r.ID)
			e.Uint8(r.Op)
			e.String(r.Tenant)
			e.String(r.Sess)
			e.Uint8(r.Tag)
			e.Varint(int64(r.X))
			e.Varint(int64(r.Y))
			e.Uint8(r.NewTag)
			e.Varint(int64(r.NewX))
			e.Varint(int64(r.NewY))
			e.Varint(r.Uses)
			e.Bool(r.Acc)
			e.Bool(r.ExplicitDrop)
			e.Uvarint(uint64(len(r.Val)))
			for _, v := range r.Val {
				e.Float64(v)
			}
		},
		func(d *wire.Decoder) Req {
			r := Req{
				ID:     d.Varint(),
				Op:     d.Uint8(),
				Tenant: d.String(),
				Sess:   d.String(),
				Tag:    d.Uint8(),
				X:      d.Int32(),
				Y:      d.Int32(),
				NewTag: d.Uint8(),
				NewX:   d.Int32(),
				NewY:   d.Int32(),
				Uses:   d.Varint(),
				Acc:    d.Bool(),
			}
			r.ExplicitDrop = d.Bool()
			n := d.Len(8)
			if n > 0 {
				r.Val = make([]float64, n)
				for i := range r.Val {
					r.Val[i] = d.Float64()
				}
			}
			return r
		})
	wire.Register("store.Resp",
		func(e *wire.Encoder, r Resp) {
			e.Varint(r.ID)
			e.Bool(r.OK)
			e.String(r.Err)
			e.Uint8(r.Rej)
			e.Varint(int64(r.Home))
			e.Uvarint(uint64(len(r.Val)))
			for _, v := range r.Val {
				e.Float64(v)
			}
			e.Uvarint(uint64(len(r.Names)))
			for _, o := range r.Names {
				encOName(e, o)
			}
			e.Uvarint(uint64(len(r.Tenants)))
			for _, t := range r.Tenants {
				e.String(t.Tenant)
				for _, v := range [16]int64{
					t.Opens, t.Attaches, t.Closes,
					t.Creates, t.Uses, t.Updates,
					t.Acquires, t.Commits, t.Chaotic,
					t.Renames, t.Lists, t.Rejected,
					t.BytesIn, t.BytesOut,
					t.LiveBytes, t.Sessions,
				} {
					e.Varint(v)
				}
			}
		},
		func(d *wire.Decoder) Resp {
			r := Resp{
				ID:   d.Varint(),
				OK:   d.Bool(),
				Err:  d.String(),
				Rej:  d.Uint8(),
				Home: d.Int32(),
			}
			if n := d.Len(8); n > 0 {
				r.Val = make([]float64, n)
				for i := range r.Val {
					r.Val[i] = d.Float64()
				}
			}
			if n := d.Len(4); n > 0 {
				r.Names = make([]OName, n)
				for i := range r.Names {
					r.Names[i] = decOName(d)
				}
			}
			if n := d.Len(8); n > 0 {
				r.Tenants = make([]TenantStat, n)
				for i := range r.Tenants {
					t := &r.Tenants[i]
					t.Tenant = d.String()
					var vs [16]int64
					for j := range vs {
						vs[j] = d.Varint()
					}
					t.Opens, t.Attaches, t.Closes = vs[0], vs[1], vs[2]
					t.Creates, t.Uses, t.Updates = vs[3], vs[4], vs[5]
					t.Acquires, t.Commits, t.Chaotic = vs[6], vs[7], vs[8]
					t.Renames, t.Lists, t.Rejected = vs[9], vs[10], vs[11]
					t.BytesIn, t.BytesOut = vs[12], vs[13]
					t.LiveBytes, t.Sessions = vs[14], vs[15]
				}
			}
			return r
		})
}

// WireSamples returns canonical encodings of the client protocol types
// with representative payloads, seeding the wire fuzz corpus (the client
// protocol crosses process boundaries just like the rank protocol, so it
// gets the same strict round-trip coverage).
func WireSamples() [][]byte {
	msgs := []any{
		Req{ID: 1, Op: OpOpen, Tenant: "acme", Sess: "s0"},
		Req{ID: 2, Op: OpCreate, Tenant: "acme", Sess: "s0",
			Tag: 1, X: 3, Y: -4, Uses: 7, Val: []float64{1, 2.5, -3e9}},
		Req{ID: 3, Op: OpUpdate, Tenant: "acme", Sess: "s0",
			Tag: 2, X: 0, Y: 0, Acc: true, Val: []float64{0.25}},
		Req{ID: 4, Op: OpRename, Tenant: "t2", Sess: "jobs",
			Tag: 1, X: 1, Y: 1, NewTag: 1, NewX: 1, NewY: 2, Uses: 3},
		Req{ID: 5, Op: OpClose, Tenant: "t2", Sess: "jobs", ExplicitDrop: true},
		Resp{ID: 1, OK: true},
		Resp{ID: 2, OK: false, Err: "wrong rank", Rej: RejWrongRank, Home: 3},
		Resp{ID: 3, OK: true, Val: []float64{1.5, 2}},
		Resp{ID: 4, OK: true, Names: []OName{{Tag: 1, X: 0, Y: 0}, {Tag: 2, X: 1, Y: -1, Acc: true}}},
		Resp{ID: 5, OK: true, Tenants: []TenantStat{{Tenant: "acme", Opens: 2, Creates: 9, LiveBytes: 144}}},
	}
	out := make([][]byte, len(msgs))
	for i, m := range msgs {
		out[i] = wire.Marshal(m)
	}
	return out
}
