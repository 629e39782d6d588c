package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"samsys/internal/fabric"
	"samsys/internal/machine"
	"samsys/internal/sim"
	"samsys/internal/stats"
	"samsys/internal/trace"
)

// The fabric-boundary span wrapper. Like faultfab it wraps a fabric.Fabric
// and every context it hands out; unlike faultfab it changes nothing and
// records one span per boundary call: the application body (app), each
// Ctx.Send (send), each handler invocation (handle) and each Event.Wait
// (wait). Spans nest by goroutine — a handler run from inside a Wait is
// that Wait's child — so a span's self time is its duration minus its
// children's, and the four kinds' self times partition each node's busy
// time. Every fabric runs a node's handlers on that node's application
// goroutine, so each node's span list is touched by one goroutine only.

type spanKind uint8

const (
	kindApp spanKind = iota
	kindSend
	kindHandle
	kindWait
	numKinds
)

var kindNames = [numKinds]string{"app", "send", "handle", "wait"}

// span is one recorded boundary call. Times are nanoseconds since the
// wrapper was created; parent indexes the same node's span list (-1 for a
// root span).
type span struct {
	Kind   spanKind `json:"-"`
	Name   string   `json:"name"`
	Node   int32    `json:"node"`
	Solve  int32    `json:"solve"`
	Parent int32    `json:"parent"`
	Start  int64    `json:"start_ns"`
	End    int64    `json:"end_ns"`
}

type nodeSpans struct {
	spans []span
	stack []int32
	ctx   *spanCtx // the wrapped context, reused while the inner one is
}

// Spans is the span-recording wrapper around one fabric.
type Spans struct {
	inner  fabric.Fabric
	onSend func(size int, payload any) // optional: sees every send
	solve  int32
	t0     time.Time
	nodes  []nodeSpans
}

// wrapSpans wraps inner. The returned fabric is the one to hand to the
// runtime: it also implements fabric.PayloadReleaser exactly when inner
// does, so the runtime takes the same release path as without the wrapper.
func wrapSpans(inner fabric.Fabric, solve int) (*Spans, fabric.Fabric) {
	s := &Spans{inner: inner, solve: int32(solve), t0: time.Now(), nodes: make([]nodeSpans, inner.N())}
	if pr, ok := inner.(fabric.PayloadReleaser); ok {
		return s, &releasingSpans{s, pr}
	}
	return s, s
}

type releasingSpans struct {
	*Spans
	pr fabric.PayloadReleaser
}

// ReleasePayload forwards a dropped transport-owned payload, so shm arena
// blocks keep flowing back to their lanes under the wrapper.
func (r *releasingSpans) ReleasePayload(node int, item any) { r.pr.ReleasePayload(node, item) }

func (s *Spans) open(node int, k spanKind) int32 {
	ns := &s.nodes[node]
	parent := int32(-1)
	if n := len(ns.stack); n > 0 {
		parent = ns.stack[n-1]
	}
	i := int32(len(ns.spans))
	ns.spans = append(ns.spans, span{Kind: k, Node: int32(node), Solve: s.solve, Parent: parent,
		Start: int64(time.Since(s.t0))})
	ns.stack = append(ns.stack, i)
	return i
}

func (s *Spans) close(node int, i int32) {
	ns := &s.nodes[node]
	ns.spans[i].End = int64(time.Since(s.t0))
	ns.stack = ns.stack[:len(ns.stack)-1]
}

func (s *Spans) wrap(c fabric.Ctx) *spanCtx {
	ns := &s.nodes[c.Node()]
	if ns.ctx == nil || ns.ctx.inner != c {
		ns.ctx = &spanCtx{inner: c, s: s}
	}
	return ns.ctx
}

func (s *Spans) N() int                            { return s.inner.N() }
func (s *Spans) Profile() machine.Profile          { return s.inner.Profile() }
func (s *Spans) Elapsed() sim.Time                 { return s.inner.Elapsed() }
func (s *Spans) Counters(node int) *stats.Counters { return s.inner.Counters(node) }
func (s *Spans) Report() []stats.NodeReport        { return s.inner.Report() }

// SetTracer forwards the recorder to the inner fabric's transport events.
func (s *Spans) SetTracer(r *trace.Recorder) {
	if st, ok := s.inner.(interface{ SetTracer(*trace.Recorder) }); ok {
		st.SetTracer(r)
	}
}

// SetHandler installs h with each invocation recorded as a handle span.
func (s *Spans) SetHandler(h fabric.Handler) {
	s.inner.SetHandler(func(hc fabric.Ctx, m fabric.Message) {
		node := hc.Node()
		i := s.open(node, kindHandle)
		h(s.wrap(hc), m)
		s.close(node, i)
	})
}

// Run runs app with its body recorded as the node's app span.
func (s *Spans) Run(app func(c fabric.Ctx)) error {
	return s.inner.Run(func(c fabric.Ctx) {
		node := c.Node()
		i := s.open(node, kindApp)
		defer s.close(node, i)
		app(s.wrap(c))
	})
}

type spanCtx struct {
	inner fabric.Ctx
	s     *Spans
}

func (c *spanCtx) Node() int                       { return c.inner.Node() }
func (c *spanCtx) N() int                          { return c.inner.N() }
func (c *spanCtx) Profile() machine.Profile        { return c.inner.Profile() }
func (c *spanCtx) Now() sim.Time                   { return c.inner.Now() }
func (c *spanCtx) Charge(cat int, d sim.Time)      { c.inner.Charge(cat, d) }
func (c *spanCtx) ChargeFlops(cat int, fl float64) { c.inner.ChargeFlops(cat, fl) }
func (c *spanCtx) Counters() *stats.Counters       { return c.inner.Counters() }

func (c *spanCtx) Send(dst, size int, payload any) {
	node := c.inner.Node()
	if c.s.onSend != nil {
		c.s.onSend(size, payload)
	}
	i := c.s.open(node, kindSend)
	c.inner.Send(dst, size, payload)
	c.s.close(node, i)
}

// NewEvent wraps the inner event so Wait can unwrap the context: inner
// fabrics type-assert their own ctx type inside Wait.
func (c *spanCtx) NewEvent() fabric.Event { return &spanEvent{inner: c.inner.NewEvent()} }

type spanEvent struct{ inner fabric.Event }

func (e *spanEvent) Wait(fc fabric.Ctx, reason int) {
	c := fc.(*spanCtx)
	node := c.inner.Node()
	i := c.s.open(node, kindWait)
	e.inner.Wait(c.inner, reason)
	c.s.close(node, i)
}
func (e *spanEvent) Signal()    { e.inner.Signal() }
func (e *spanEvent) Done() bool { return e.inner.Done() }

// selfTimes sums each kind's self time over all nodes: a span's duration
// minus the durations of its direct children.
func (s *Spans) selfTimes() [numKinds]time.Duration {
	var out [numKinds]time.Duration
	for _, ns := range s.nodes {
		self := make([]int64, len(ns.spans))
		for i, sp := range ns.spans {
			self[i] += sp.End - sp.Start
			if sp.Parent >= 0 {
				self[sp.Parent] -= sp.End - sp.Start
			}
		}
		for i, sp := range ns.spans {
			out[sp.Kind] += time.Duration(self[i])
		}
	}
	return out
}

// writeJSONL writes every span, one JSON object a line, to dir/name.
func (s *Spans) writeJSONL(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, ns := range s.nodes {
		for _, sp := range ns.spans {
			sp.Name = kindNames[sp.Kind]
			if err := enc.Encode(sp); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// bootClock passes everything through to the inner fabric untouched — the
// contexts the application sees are the inner ones — and notes when the
// last node entered the application body: the end of cluster set-up.
type bootClock struct {
	fabric.Fabric
	entered chan time.Time
}

func withBootClock(inner fabric.Fabric) (*bootClock, fabric.Fabric) {
	b := &bootClock{Fabric: inner, entered: make(chan time.Time, inner.N())}
	if pr, ok := inner.(fabric.PayloadReleaser); ok {
		return b, &releasingBootClock{b, pr}
	}
	return b, b
}

type releasingBootClock struct {
	*bootClock
	pr fabric.PayloadReleaser
}

func (r *releasingBootClock) ReleasePayload(node int, item any) { r.pr.ReleasePayload(node, item) }

func (b *bootClock) Run(app func(c fabric.Ctx)) error {
	return b.Fabric.Run(func(c fabric.Ctx) {
		b.entered <- time.Now()
		app(c)
	})
}

// ready returns the time the last node entered the application body.
func (b *bootClock) ready() time.Time {
	var last time.Time
	for i := 0; i < cap(b.entered); i++ {
		if t := <-b.entered; t.After(last) {
			last = t
		}
	}
	return last
}
