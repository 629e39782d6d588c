// Package trace is a structured event tracer for the SAM runtime: a
// per-node, allocation-light recorder of typed protocol events with two
// consumers built on top — an exporter that writes Chrome trace-event
// JSON (loadable in chrome://tracing or Perfetto) and an online checker
// that validates protocol invariants (single assignment, accumulator
// mutual exclusion, storage reclamation, cache byte budget, per-link
// FIFO delivery and message conservation) as events are emitted.
//
// Tracing is opt-in and zero-cost when disabled: every hook point in the
// simulation kernel, the fabrics and the runtime guards emission behind a
// single nil check. Under the deterministic simfab fabric the event
// stream is bit-for-bit reproducible, so traces double as golden-file
// regression artifacts for the protocol tests.
package trace

import "fmt"

// Name mirrors core.Name (a shared-data name) field for field, so core
// can convert with a plain struct conversion without an import cycle.
type Name struct {
	Tag     uint8
	X, Y, Z int32
}

func (n Name) String() string {
	return fmt.Sprintf("%d:%d.%d.%d", n.Tag, n.X, n.Y, n.Z)
}

// IsZero reports whether the name is unset (the event concerns no datum).
func (n Name) IsZero() bool { return n == Name{} }

// Kind identifies the type of a traced event.
type Kind uint8

// Event kinds. The Aux/Aux2 columns of Event are kind-specific; the
// meaning of each is given beside the kind.
const (
	EvNone Kind = iota

	// Simulation kernel: process lifecycle (Proc carries the process name).
	EvProcStart   // a process was spawned; Aux: 1 if daemon
	EvProcBlock   // a process blocked; Aux: block reason category
	EvProcUnblock // a blocked process was resumed

	// Fabric: message transport. Peer is the other endpoint.
	EvMsgSend    // Aux: per-link sequence number, Aux2: scheduled arrival (simfab)
	EvMsgDeliver // Aux: per-link sequence number of the delivered message

	// Value protocol.
	EvValCreate   // BeginCreateValue; Aux: declared uses
	EvValPublish  // EndCreateValue / EndRenameValue; Aux: declared uses
	EvValUse      // BeginUseValue; Aux: 1 cache hit, 0 remote fetch
	EvValData     // a value copy arrived and was cached
	EvValDone     // DoneValue; Aux: uses consumed
	EvValDrain    // home: all declared uses consumed, copies reclaimed
	EvValRelease  // a cached copy was released; Aux: 1 dropped now, 0 deferred
	EvValDestroy  // home: the value was destroyed everywhere
	EvRenameBegin // BeginRenameValue on the old name
	EvRenameGrant // home: old name retired, storage may be reused; Peer: owner
	EvPush        // PushValue; Peer: destination
	EvFetchAsync  // FetchValueAsync; Aux: 1 locally satisfied, 0 fetch issued

	// Accumulator protocol.
	EvAccCreate   // CreateAccum (creator is the initial holder)
	EvAccRequest  // BeginUpdateAccum sent an acquisition to the home; Peer: home
	EvAccAcquire  // BeginUpdateAccum obtained exclusive access; Aux: 1 local hit
	EvAccCommit   // EndUpdateAccum; Aux: committed version
	EvAccHandoff  // holder hands the data to its successor; Peer: successor
	EvAccArrive   // accumulator data arrived, this node is now the holder
	EvAccToValue  // EndUpdateAccumToValue; Aux: declared uses
	EvValToAccum  // ConvertValueToAccum (owner becomes holder again)
	EvChaoticRead // BeginReadChaotic; Aux: 1 fresh local snapshot, 0 fetch
	EvChaoticServe
	EvChaoticData // a read-only snapshot arrived; Aux: snapshot version
	EvInvalidate  // Invalidate-mode reclaim; Aux: 1 dropped now, 0 deferred

	// Per-node cache of shared data copies.
	EvCacheReset  // cache created; Size: capacity in bytes
	EvCacheInsert // Size: entry bytes, Aux: used bytes after, Aux2: evictable entries
	EvCacheEvict  // LRU eviction; Size: entry bytes
	EvCacheRemove // explicit reclaim; Size: entry bytes
	EvCacheResize // in-place item growth/shrink; Size: new bytes, Aux: used bytes after
	EvCachePin    // Aux: pin count after
	EvCacheUnpin  // Aux: pin count after

	// Barriers, tasks and termination detection.
	EvBarrierArrive  // Aux: barrier epoch
	EvBarrierRelease // Aux: barrier epoch
	EvTaskSpawn      // Peer: executing node; Size: descriptor bytes
	EvTaskExec       // NextTask dequeued a task
	EvIdleReport     // local queue drained; Aux: spawned-processed delta
	EvTermWave       // node 0 started a termination probe wave; Aux: round
	EvTerminate      // global task-pool termination announced locally

	// EvWorldStart marks a new runtime instance on a shared recorder
	// (one recorder may span several runs of an experiment sweep); the
	// invariant checker resets its protocol state here. Aux: node count.
	EvWorldStart

	// Fault injection (faultfab) and netfab link-failure handling. These
	// kinds come last so the numeric values of the earlier kinds — which
	// appear in on-disk dumps — stay stable.
	EvFaultDelay // faultfab held a send; Peer: dst, Aux: per-link msg index, Aux2: delay ns
	EvFaultReset // faultfab reset a data link; Peer: dst, Aux: per-link msg index
	EvFaultCrash // faultfab killed this rank; Aux: per-rank send count at the kill
	EvLinkDown   // netfab data link lost (error or injected); Peer: other end, Aux: 1 outgoing
	EvLinkRedial // netfab data link re-established; Peer: dst, Aux: dial attempt, Aux2: frames resent
	EvMsgDup     // netfab suppressed a duplicate resent frame; Peer: src, Aux: per-link seq

	// External client operations against a store service (internal/store).
	// The checker does not constrain these — client ops execute as ordinary
	// SAM operations whose protocol events are checked above — but their
	// presence in a trace ties external mutations to the protocol activity
	// they caused.
	EvClientOpen   // a client session opened/attached; Aux: attached conns
	EvClientOp     // one client request executed; Aux: opcode, Aux2: request bytes
	EvClientClose  // a client session closed; Aux: 1 explicit, 0 idle timeout
	EvClientReject // a client request refused; Aux: opcode, Aux2: reason code

	// Shared-memory fabric lanes (shmfab / hybrid netfab). EvShmSend is
	// the send event on a shm lane — the checker's conservation and FIFO
	// rules treat it exactly like EvMsgSend (delivery stays EvMsgDeliver),
	// so the PR-1 invariants cover shm links unchanged.
	EvShmSend  // Peer: dst, Aux: per-link seq, Aux2: 1 arena handoff / 0 inline
	EvShmWake  // receiver parked and woke to lane data; Peer: src, Aux: parked ns
	EvShmArena // arena pressure/teardown; Peer: dst, Aux: bytes, Aux2: live blocks

	numKinds
)

var kindNames = [numKinds]string{
	EvNone:           "none",
	EvProcStart:      "proc-start",
	EvProcBlock:      "proc-block",
	EvProcUnblock:    "proc-unblock",
	EvMsgSend:        "msg-send",
	EvMsgDeliver:     "msg-deliver",
	EvValCreate:      "val-create",
	EvValPublish:     "val-publish",
	EvValUse:         "val-use",
	EvValData:        "val-data",
	EvValDone:        "val-done",
	EvValDrain:       "val-drain",
	EvValRelease:     "val-release",
	EvValDestroy:     "val-destroy",
	EvRenameBegin:    "rename-begin",
	EvRenameGrant:    "rename-grant",
	EvPush:           "push",
	EvFetchAsync:     "fetch-async",
	EvAccCreate:      "acc-create",
	EvAccRequest:     "acc-request",
	EvAccAcquire:     "acc-acquire",
	EvAccCommit:      "acc-commit",
	EvAccHandoff:     "acc-handoff",
	EvAccArrive:      "acc-arrive",
	EvAccToValue:     "acc-to-value",
	EvValToAccum:     "value-to-acc",
	EvChaoticRead:    "chaotic-read",
	EvChaoticServe:   "chaotic-serve",
	EvChaoticData:    "chaotic-data",
	EvInvalidate:     "invalidate",
	EvCacheReset:     "cache-reset",
	EvCacheInsert:    "cache-insert",
	EvCacheEvict:     "cache-evict",
	EvCacheRemove:    "cache-remove",
	EvCacheResize:    "cache-resize",
	EvCachePin:       "cache-pin",
	EvCacheUnpin:     "cache-unpin",
	EvBarrierArrive:  "barrier-arrive",
	EvBarrierRelease: "barrier-release",
	EvTaskSpawn:      "task-spawn",
	EvTaskExec:       "task-exec",
	EvIdleReport:     "idle-report",
	EvTermWave:       "term-wave",
	EvTerminate:      "terminate",
	EvWorldStart:     "world-start",
	EvFaultDelay:     "fault-delay",
	EvFaultReset:     "fault-reset",
	EvFaultCrash:     "fault-crash",
	EvLinkDown:       "link-down",
	EvLinkRedial:     "link-redial",
	EvMsgDup:         "msg-dup",
	EvClientOpen:     "client-open",
	EvClientOp:       "client-op",
	EvClientClose:    "client-close",
	EvClientReject:   "client-reject",
	EvShmSend:        "shm-send",
	EvShmWake:        "shm-wake",
	EvShmArena:       "shm-arena",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind%d", int(k))
}

// Category groups kinds for trace viewers.
func (k Kind) Category() string {
	switch {
	case k >= EvProcStart && k <= EvProcUnblock:
		return "proc"
	case k >= EvMsgSend && k <= EvMsgDeliver:
		return "fabric"
	case k >= EvValCreate && k <= EvFetchAsync:
		return "value"
	case k >= EvAccCreate && k <= EvInvalidate:
		return "accum"
	case k >= EvCacheReset && k <= EvCacheUnpin:
		return "cache"
	case k >= EvBarrierArrive && k <= EvTerminate:
		return "task"
	case k >= EvFaultDelay && k <= EvFaultCrash:
		return "fault"
	case k >= EvLinkDown && k <= EvMsgDup:
		return "fabric"
	case k >= EvClientOpen && k <= EvClientReject:
		return "client"
	case k >= EvShmSend && k <= EvShmArena:
		return "fabric"
	}
	return "other"
}
