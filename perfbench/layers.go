package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"time"

	"samsys/internal/apps/barneshut"
	"samsys/internal/apps/cholesky"
	"samsys/internal/apps/sparse"
	"samsys/internal/core"
	"samsys/internal/fabric"
	"samsys/internal/fabric/shmfab"
	"samsys/internal/octlib"
	"samsys/internal/pack"
	"samsys/internal/stats"
	"samsys/internal/store"
	"samsys/internal/trace"
	"samsys/internal/wire"
)

// The traced run. It measures every layer from outside, the same suite
// for every workload, so each per-layer metric is present in every
// traced run; the workload picks which application and fabric the tracing
// overhead and event count refer to, and that one gets more repetitions.
// Its parts:
//
//   - traced solves: cholesky on each fabric and barneshut on gofab under
//     the span wrapper, the program's trace.Recorder and trace.Checker,
//     alternated with untraced solves of the same input (overhead);
//   - the store under the span wrapper, recorder and checker, plus an
//     untraced store for closed-loop RPC latency and open-loop phases;
//   - probes: fabric ping-pong and streaming through fabric.Fabric with
//     no runtime above it, shm lane handoffs, core hit/miss/migration and
//     barrier costs, the wire codec on payloads captured from a real
//     solve, pack clones and the sparse and octlib kernels.

// minAccounted is the least share of ranks × solve wall time the span
// self times must account for (measured 0.62–0.86 on the four fabrics for
// cholesky and 0.98 for barneshut on a 2-CPU host).
const minAccounted = 0.5

// tracedPairs is how many rounds of an untraced, a span-wrapped and a
// recorder-checked solve each fabric gets; the fabric of the workload under
// study gets twice as many.
const tracedPairs = 3

type tracedApp struct {
	app                        string    // names the span files
	untraced, spanned, checked []float64 // solve ms
	self                       [numKinds]time.Duration
	phase                      time.Duration // the app's own Elapsed, summed
	wall                       time.Duration // span-wrapped solves' wall time, summed
	events                     int
	counters                   stats.Counters
	solves                     int
	nodes                      int
}

func (r *run) layers(wl string) error {
	study := "store"
	bhPairs := tracedPairs
	if wl != "store" {
		app, kind, err := workloadApp(wl)
		if err != nil {
			return err
		}
		study = kind
		if app == "barneshut" {
			study, bhPairs = "bh", 2*tracedPairs
		}
	}
	var captured capture
	costs, err := r.tracedCholesky(study, &captured)
	if err != nil {
		return err
	}
	if costs["bh"], err = r.tracedBarnesHut(bhPairs); err != nil {
		return err
	}
	if costs["store"], err = r.storeLayers(wl == "store"); err != nil {
		return err
	}
	if err := r.fabricProbes(); err != nil {
		return err
	}
	if err := r.coreProbes(); err != nil {
		return err
	}
	r.kernelProbes(&captured)
	c := costs[study]
	r.set("trace.overhead_pct", "%", c.trace)
	r.set("span.overhead_pct", "%", c.span)
	r.set("trace.events_per_solve", "count", c.events)
	r.set("fail_ratio", "ratio", float64(r.res.Failed)/float64(max(r.res.Attempted, 1)))
	return nil
}

// traceCost is what tracing costs one workload: the program's recorder
// and checker, and the benchmark's span wrapper, each as the change of the
// median solve (or request) time against untraced runs, and the events the
// recorder takes per solve (or request).
type traceCost struct{ trace, span, events float64 }

func (a *tracedApp) cost() traceCost {
	u := median(a.untraced)
	return traceCost{
		trace:  100 * (median(a.checked)/u - 1),
		span:   100 * (median(a.spanned)/u - 1),
		events: float64(a.events) / float64(len(a.checked)),
	}
}

// appSolve runs one solve on fab under opts and returns the app's own
// measured phase time.
type appSolve func(fab fabric.Fabric, opts core.Options) (time.Duration, error)

// traceApp runs pairs rounds of three solves of one app on one fabric:
// untraced; under the span wrapper, whose self times make the breakdown;
// and under the program's trace recorder and invariant checker, whose
// verdict must be clean. onSend, if set, sees every send of the wrapped
// solves.
func (r *run) traceApp(kind string, pairs int, a *tracedApp, onSend func(int, any), solve appSolve) error {
	for i := 0; i < pairs; i++ {
		u, err := r.untimedSolve(kind, func(fab fabric.Fabric) error {
			_, err := solve(fab, appOptions())
			return err
		})
		if err != nil {
			continue
		}
		a.untraced = append(a.untraced, u)
		if err := r.spanSolve(kind, i, a, onSend, solve); err != nil {
			return err
		}
		if err := r.checkedSolve(kind, a, solve); err != nil {
			return err
		}
	}
	if len(a.untraced) == 0 || a.solves == 0 || len(a.checked) == 0 {
		return fmt.Errorf("no traced solve on %s", kind)
	}
	return nil
}

// spanSolve runs one solve under the span wrapper and folds its spans
// into a; the spans of the first two solves per fabric are written out.
func (r *run) spanSolve(kind string, id int, a *tracedApp, onSend func(int, any), solve appSolve) error {
	inner, err := r.newFabric(kind)
	if err != nil {
		return err
	}
	sp, fab := wrapSpans(inner, id)
	sp.onSend = onSend
	t0 := time.Now()
	phase, err := solve(fab, appOptions())
	wall := time.Since(t0)
	r.count(err != nil)
	if err != nil {
		r.fail("%s solve under the span wrapper: %v", kind, err)
		return nil
	}
	self := sp.selfTimes()
	for k := range self {
		a.self[k] += self[k]
	}
	a.spanned = append(a.spanned, ms(wall))
	a.wall += wall
	a.phase += phase
	a.solves++
	a.nodes = fab.N()
	for n := 0; n < fab.N(); n++ {
		a.counters.Add(fab.Counters(n))
	}
	if id >= 2 {
		return nil
	}
	return sp.writeJSONL(filepath.Join(r.workdir, "spans"), fmt.Sprintf("%s-%s-%d.jsonl", a.app, kind, id))
}

// checkedSolve runs one solve with the program's trace recorder on the
// runtime and the fabric and the invariant checker observing it.
func (r *run) checkedSolve(kind string, a *tracedApp, solve appSolve) error {
	fab, err := r.newFabric(kind)
	if err != nil {
		return err
	}
	rec := trace.New()
	chk := trace.NewChecker(nil)
	chk.Attach(rec)
	if st, ok := fab.(interface{ SetTracer(*trace.Recorder) }); ok {
		st.SetTracer(rec)
	}
	opts := appOptions()
	opts.Trace = rec
	t0 := time.Now()
	_, err = solve(fab, opts)
	wall := time.Since(t0)
	r.count(err != nil)
	if err != nil {
		r.fail("traced %s solve: %v", kind, err)
		return nil
	}
	if err := chk.Finish(); err != nil {
		r.fail("trace checker on %s: %v", kind, err)
	}
	a.checked = append(a.checked, ms(wall))
	a.events += rec.Len() + int(rec.Dropped())
	return nil
}

// setSpans reports a traced app's per-solve self times and counts; f names
// the fabric, or "bh" for Barnes-Hut on gofab.
func (r *run) setSpans(f string, a *tracedApp) {
	per := func(d time.Duration) float64 { return ms(d) / float64(a.solves) }
	r.set("fabric."+f+".send_ms", "ms", per(a.self[kindSend]))
	r.set("core."+f+".handle_ms", "ms", per(a.self[kindHandle]))
	r.set("core."+f+".wait_ms", "ms", per(a.self[kindWait]))
	r.set("app."+f+".compute_ms", "ms", per(a.self[kindApp]))
	r.set("app."+f+".phase_ms", "ms", per(a.phase))
	var busy time.Duration
	for _, d := range a.self {
		busy += d
	}
	// Share of ranks × wall time the four self times account for. The rest
	// is the app's set-up before the fabric runs (Cholesky's symbolic
	// analysis) and the fabric's own start-up, drain and teardown.
	share := float64(busy) / float64(a.wall) / float64(a.nodes)
	if share < minAccounted || share > 1.02 {
		r.fail("span self times on %s cover %.2f of ranks × wall time, want %.2f..1", f, share, minAccounted)
	}
	r.set("span."+f+".accounted", "ratio", share)
	c := a.counters
	n := float64(a.solves)
	r.set("core."+f+".msgs", "count", float64(c.Messages)/n)
	r.set("core."+f+".bytes", "count", float64(c.BytesSent)/n)
	r.set("core."+f+".data_bytes", "count", float64(c.DataBytes)/n)
	r.set("core."+f+".batch_share", "ratio", ratio(c.CoalescedMessages, c.CoalescedMessages+c.RawMessages))
	r.set("core."+f+".batch_len", "count", ratio(c.CoalescedMessages, c.Batches))
	r.set("core."+f+".cache_hit_ratio", "ratio", ratio(c.CacheHits, c.SharedAccesses))
	r.set("core."+f+".remote_accesses", "count", float64(c.RemoteAccesses)/n)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// untimedSolve runs one untraced solve and returns its wall time in ms.
func (r *run) untimedSolve(kind string, solve func(fabric.Fabric) error) (float64, error) {
	sd, _, err := r.timedSolve(kind, solve)
	r.count(err != nil)
	if err != nil {
		r.fail("%s solve: %v", kind, err)
	}
	return ms(sd), err
}

// tracedCholesky traces Cholesky on each fabric; the fabric under study
// gets twice the rounds. It returns each fabric's tracing cost.
func (r *run) tracedCholesky(study string, cap *capture) (map[string]traceCost, error) {
	m := cholMatrix(r.seed)
	costs := map[string]traceCost{}
	for _, f := range fabrics {
		a := &tracedApp{app: "cholesky"}
		var onSend func(int, any)
		if f == "net" {
			onSend = cap.observe
		}
		pairs := tracedPairs
		if f == study {
			pairs *= 2
		}
		if err := r.traceApp(f, pairs, a, onSend, cholSolve(m)); err != nil {
			return nil, err
		}
		r.setSpans(f, a)
		r.set(f+".solve_ms", "ms", median(a.untraced))
		costs[f] = a.cost()
	}
	bl := sparse.NewBlocks(sparse.SymbolicFactor(m), cholBlock)
	r.set("sparse.flops_per_solve", "count", bl.TotalBlockFlops())
	return costs, nil
}

// cholSolve is a traced Cholesky solve of m; it reports the app's phase time.
func cholSolve(m *sparse.Matrix) func(fabric.Fabric, core.Options) (time.Duration, error) {
	return func(fab fabric.Fabric, o core.Options) (time.Duration, error) {
		res, err := cholesky.Run(fab, o, cholesky.Config{Matrix: m, BlockSize: cholBlock})
		if err != nil {
			return 0, err
		}
		return time.Duration(res.Elapsed), nil
	}
}

func (r *run) tracedBarnesHut(pairs int) (traceCost, error) {
	bodies := octlib.RandomBodies(bhBodies, r.seed)
	cfg := barneshut.Config{Bodies: bodies, Params: bhParams}
	a := &tracedApp{app: "barneshut"}
	var inter int64
	err := r.traceApp("gofab", pairs, a, nil, func(fab fabric.Fabric, o core.Options) (time.Duration, error) {
		res, err := barneshut.Run(fab, o, cfg)
		if err != nil {
			return 0, err
		}
		inter = res.Interactions
		return time.Duration(res.Elapsed), nil
	})
	if err != nil {
		return traceCost{}, err
	}
	r.setSpans("bh", a)
	r.set("bh.solve_ms", "ms", median(a.untraced))
	r.set("octlib.interactions_per_body", "count", float64(inter)/bhBodies)
	return a.cost(), nil
}

// storeLayers measures the store: closed-loop RPC latency per op class and
// short light and loaded phases on an untraced cluster (plus the maximum-
// rate search when the store is the workload under study), then a light
// phase on a cluster under the span wrapper and one on a cluster under the
// program's recorder and checker. Costs are changes of the light p50.
func (r *run) storeLayers(full bool) (traceCost, error) {
	g, _, err := r.bootStores()
	if err != nil {
		return traceCost{}, err
	}
	rng := rand.New(rand.NewSource(r.seed))
	for k := opKind(0); k < numOps; k++ {
		var lat []float64
		for i := 0; i < 200; i++ {
			op := storeOp{sess: rng.Intn(storeSessions), kind: k, idx: int32(rng.Intn(storeAccs))}
			t0 := time.Now()
			err := g.do(op)
			lat = append(lat, float64(time.Since(t0))/1e3)
			r.count(err != nil)
		}
		r.set("store.rpc_us."+opNames[k], "us", median(lat))
	}
	light, err := g.phase(rng, lightRate, 3*time.Second, time.Second)
	if err != nil {
		return traceCost{}, err
	}
	loaded, err := g.phase(rng, loadedRate, 2*time.Second, time.Second/2)
	if err != nil {
		return traceCost{}, err
	}
	phases := []*phaseResult{light, loaded}
	rate := 0.0
	if full {
		var probes []*phaseResult
		lo := lightRate
		if loaded.pass() {
			lo = loadedRate
		}
		rate, probes, err = g.maxRate(rng, lo, maxRate)
		if err != nil {
			return traceCost{}, err
		}
		phases = append(phases, probes...)
	}
	g.verifyFinal()
	for _, p := range phases {
		r.res.Attempted += int64(p.attempts)
		r.res.Failed += int64(p.failed)
		p.print()
	}
	r.problems = append(r.problems, g.problems...)
	r.set("store.light.p50_ms", "ms", light.windowed(0.5))
	r.set("store.light.p99_ms", "ms", light.p99())
	r.set("store.loaded.p99_ms", "ms", loaded.p99())
	r.set("store.hot.p99_ms", "ms", quantile(loaded.hot, 0.99))
	r.set("store.max_rate", "1/s", rate)
	r.set("loadgen.lag_p99_ms", "ms", loaded.lagP99)
	r.set("loadgen.backlog", "count", float64(loaded.backlog))
	r.set("store.rejects", "count", float64(g.rejects.Load()))
	r.set("store.errors", "count", float64(g.errors.Load()))
	if err := g.stop(); err != nil {
		return traceCost{}, err
	}

	// Under the span wrapper on the serving fabric.
	var sp *Spans
	spanned, err := r.storeTrial(rng, nil, func(inner fabric.Fabric) fabric.Fabric {
		var fab fabric.Fabric
		sp, fab = wrapSpans(inner, 0)
		return fab
	})
	if err != nil {
		return traceCost{}, err
	}
	reqs := float64(spanned.attempts)
	self := sp.selfTimes()
	r.set("store.span.handle_us", "us", float64(self[kindHandle])/1e3/reqs)
	r.set("store.span.send_us", "us", float64(self[kindSend])/1e3/reqs)
	if err := sp.writeJSONL(filepath.Join(r.workdir, "spans"), "store.jsonl"); err != nil {
		return traceCost{}, err
	}

	// Under the program's recorder and checker.
	rec := trace.New()
	chk := trace.NewChecker(nil)
	chk.Attach(rec)
	checked, err := r.storeTrial(rng, rec, nil)
	if err != nil {
		return traceCost{}, err
	}
	if err := chk.Finish(); err != nil {
		r.fail("trace checker on the store: %v", err)
	}
	u := light.windowed(0.5)
	return traceCost{
		trace:  100 * (checked.windowed(0.5)/u - 1),
		span:   100 * (spanned.windowed(0.5)/u - 1),
		events: float64(rec.Len()+int(rec.Dropped())) / float64(checked.attempts),
	}, nil
}

// storeTrial boots a store with the given recorder and fabric wrapper,
// runs a short light phase, checks the accumulators and stops it.
func (r *run) storeTrial(rng *rand.Rand, tr *trace.Recorder, wrap func(fabric.Fabric) fabric.Fabric) (*phaseResult, error) {
	g, err := bootStore(r.ranks, r.seed, tr, wrap)
	if err != nil {
		return nil, err
	}
	p, err := g.phase(rng, lightRate, 2*time.Second, time.Second)
	if err != nil {
		return nil, err
	}
	g.verifyFinal()
	r.res.Attempted += int64(p.attempts)
	r.res.Failed += int64(p.failed)
	r.problems = append(r.problems, g.problems...)
	return p, g.stop()
}

// rawCluster runs app on a fresh cluster of the given kind with handler h
// and no runtime above the fabric.
func (r *run) rawCluster(kind string, h fabric.Handler, app func(c fabric.Ctx)) error {
	fab, err := r.newFabric(kind)
	if err != nil {
		return err
	}
	fab.SetHandler(h)
	err = fab.Run(app)
	r.count(err != nil)
	return err
}

// fabricProbes measures each transport through fabric.Fabric alone: a
// small-message ping-pong between ranks 0 and 1, and a one-way stream of
// 2 KiB messages from rank 0 to rank 1.
func (r *run) fabricProbes() error {
	const pings, msgs = 500, 2000
	for _, f := range fabrics {
		// Ping-pong. Each rank's state is touched only by its own
		// application and handler context, which never run concurrently.
		events := make([]fabric.Event, r.ranks)
		var rtt time.Duration
		err := r.rawCluster(f, func(hc fabric.Ctx, m fabric.Message) {
			seq := m.Payload.(pack.Ints)[0]
			switch {
			case hc.Node() == 1 && seq >= 0:
				hc.Send(0, 8, m.Payload)
			default:
				events[hc.Node()].Signal()
			}
		}, func(c fabric.Ctx) {
			switch c.Node() {
			case 0:
				t0 := time.Now()
				for i := 0; i < pings; i++ {
					events[0] = c.NewEvent()
					c.Send(1, 8, pack.Ints{i})
					events[0].Wait(c, stats.Idle)
				}
				rtt = time.Since(t0) / pings
				c.Send(1, 8, pack.Ints{-1})
			case 1:
				events[1] = c.NewEvent()
				events[1].Wait(c, stats.Idle)
			}
		})
		if err != nil {
			r.fail("ping-pong on %s: %v", f, err)
			continue
		}
		r.set("fabric."+f+".rtt_us", "us", float64(rtt)/1e3)

		// Stream.
		block := make(pack.Float64s, 256)
		var got int
		var start atomic.Int64
		var took time.Duration
		err = r.rawCluster(f, func(hc fabric.Ctx, m fabric.Message) {
			got++
			if got == msgs {
				events[1].Signal()
			}
		}, func(c fabric.Ctx) {
			switch c.Node() {
			case 0:
				start.Store(time.Now().UnixNano())
				for i := 0; i < msgs; i++ {
					c.Send(1, 2048, block)
				}
			case 1:
				events[1] = c.NewEvent()
				events[1].Wait(c, stats.Idle)
				took = time.Duration(time.Now().UnixNano() - start.Load())
			}
		})
		if err != nil {
			r.fail("stream on %s: %v", f, err)
			continue
		}
		r.set("fabric."+f+".stream_mb_s", "MB/s", float64(msgs*2048)/took.Seconds()/1e6)
	}
	return r.laneProbes()
}

// laneProbes times shmfab's lanes directly: a 64 B inline and a 2 KiB
// arena handoff (SendLane.Send to RecvLane.Poll on one goroutine), and the
// wake-up of a consumer parked in WaitData.
func (r *run) laneProbes() error {
	path := shmfab.LanePath(r.shmDir, "probe", 0, 1)
	tx, err := shmfab.NewSendLane(path, 1<<20, 8<<20, 512)
	if err != nil {
		return err
	}
	defer tx.Close()
	rx, err := shmfab.OpenRecvLane(path)
	if err != nil {
		return err
	}
	defer rx.Close()
	recv := func() (any, error) {
		for {
			_, p, _, ok, err := rx.Poll()
			if err != nil || ok {
				return p, err
			}
		}
	}
	service := func() {}
	for _, c := range []struct {
		name string
		n    int
	}{{"inline_ns", 8}, {"arena_ns", 256}} {
		item := make(pack.Float64s, c.n)
		const iters = 5000
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			tx.Send(8*c.n, item, service)
			p, err := recv()
			if err != nil {
				return err
			}
			rx.Release(p)
		}
		r.set("shm.lane."+c.name, "ns", float64(time.Since(t0).Nanoseconds())/iters)
	}
	const wakes = 100
	sent := make(chan time.Time, 1)
	woke := make(chan time.Duration, 1)
	go func() {
		for i := 0; i < wakes; i++ {
			for rx.Empty() {
				rx.WaitData()
			}
			p, _ := recv()
			rx.Release(p)
			woke <- time.Since(<-sent)
		}
	}()
	var lat []float64
	for i := 0; i < wakes; i++ {
		time.Sleep(2 * time.Millisecond) // let the consumer park
		sent <- time.Now()
		tx.Send(64, make(pack.Float64s, 8), service)
		lat = append(lat, float64(<-woke)/1e3)
	}
	r.set("shm.lane.wake_us", "us", median(lat))
	return nil
}

// coreProbes times the runtime's own paths: cached value and chaotic hits
// and barriers on gofab, and on every fabric a value fetch from the other
// rank (a miss) and an accumulator migration.
func (r *run) coreProbes() error {
	const hits, barriers = 20000, 1000
	var useHit, chaoticHit, barrier time.Duration
	err := r.world("gofab", func(c *core.Ctx) {
		v, a := core.N1(40, 0), core.N1(41, 0)
		if c.Node() == 0 {
			c.CreateValue(v, make(pack.Float64s, 256), core.UsesUnlimited)
			c.CreateAccum(a, make(pack.Float64s, 256))
		}
		c.Barrier()
		if c.Node() == 0 {
			t0 := time.Now()
			for i := 0; i < hits; i++ {
				_, ref := core.Use[pack.Float64s](c, v)
				ref.Release()
			}
			useHit = time.Since(t0) / hits
			t0 = time.Now()
			for i := 0; i < hits; i++ {
				_, ref := core.ReadChaotic[pack.Float64s](c, a)
				ref.Release()
			}
			chaoticHit = time.Since(t0) / hits
		}
		c.Barrier()
		t0 := time.Now()
		for i := 0; i < barriers; i++ {
			c.Barrier()
		}
		if c.Node() == 0 {
			barrier = time.Since(t0) / barriers
		}
	})
	if err != nil {
		return err
	}
	r.set("core.use_hit_ns", "ns", float64(useHit))
	r.set("core.chaotic_hit_ns", "ns", float64(chaoticHit))
	r.set("core.barrier_us", "us", float64(barrier)/1e3)

	const values, rounds = 300, 300
	for _, f := range fabrics {
		var miss, mig time.Duration
		var migrations int64
		err := r.world(f, func(c *core.Ctx) {
			if c.Node() == 0 {
				for i := 0; i < values; i++ {
					c.CreateValue(core.N1(42, i), make(pack.Float64s, 256), core.UsesUnlimited)
				}
				c.CreateAccum(core.N1(43, 0), make(pack.Float64s, 256))
			}
			c.Barrier()
			if c.Node() == 1 {
				t0 := time.Now()
				for i := 0; i < values; i++ {
					_, ref := core.Use[pack.Float64s](c, core.N1(42, i))
					ref.Release()
				}
				miss = time.Since(t0) / values
			}
			c.Barrier()
			t0 := time.Now()
			for i := 0; i < rounds; i++ {
				acc, ref := core.Update[pack.Float64s](c, core.N1(43, 0))
				acc[0]++
				ref.Commit()
			}
			c.Barrier()
			if c.Node() == 0 {
				mig = time.Since(t0)
			}
			migrations += c.Counters().AccumMigrations
		})
		if err != nil {
			return err
		}
		r.set("core."+f+".use_miss_us", "us", float64(miss)/1e3)
		r.set("core."+f+".migrate_us", "us", float64(mig)/1e3/float64(max(migrations, 1)))
	}
	return nil
}

// world runs app under the runtime on a fresh cluster of the given kind.
func (r *run) world(kind string, app func(c *core.Ctx)) error {
	fab, err := r.newFabric(kind)
	if err != nil {
		return err
	}
	err = core.NewWorld(fab, appOptions()).Run(app)
	r.count(err != nil)
	if err != nil {
		return fmt.Errorf("%s probe: %w", kind, err)
	}
	return nil
}

// capture keeps runtime messages seen on a traced netfab solve, so the
// codec is timed on the payloads the runtime really sends.
type capture struct {
	valBlock any   // a value transfer carrying a 16×16 block
	batch    any   // a coalesced batch closest to 8 messages
	batchLen int   // its message count
	seen     int64 // messages observed
}

func (cp *capture) observe(size int, payload any) {
	cp.seen++
	name := fmt.Sprintf("%T", payload)
	switch {
	case strings.HasSuffix(name, "ValData") && size >= 2048 && cp.valBlock == nil:
		cp.valBlock = payload
	case strings.HasSuffix(name, "Batch"):
		if n := sliceLen(payload); cp.batch == nil || abs(n-8) < abs(cp.batchLen-8) {
			cp.batch, cp.batchLen = payload, n
		}
	}
}

// sliceLen returns the length of the first slice field of a struct (or
// pointer to one): a batch's message list.
func sliceLen(v any) int {
	rv := reflect.Indirect(reflect.ValueOf(v))
	if rv.Kind() != reflect.Struct {
		return 0
	}
	for i := 0; i < rv.NumField(); i++ {
		if rv.Field(i).Kind() == reflect.Slice {
			return rv.Field(i).Len()
		}
	}
	return 0
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// codec returns the mean encode and decode time of v in ns.
func codec(v any) (enc, dec float64, err error) {
	const iters = 2000
	t0 := time.Now()
	var b []byte
	for i := 0; i < iters; i++ {
		b = wire.Marshal(v)
	}
	enc = float64(time.Since(t0).Nanoseconds()) / iters
	t0 = time.Now()
	for i := 0; i < iters; i++ {
		if _, err := wire.Unmarshal(b); err != nil {
			return 0, 0, fmt.Errorf("decode %T: %w", v, err)
		}
	}
	return enc, float64(time.Since(t0).Nanoseconds()) / iters, nil
}

// nsPer times f over iters calls.
func nsPer(iters int, f func()) float64 {
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		f()
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(iters)
}

var sink any

// kernelProbes times the codec, item clones and the compute kernels.
func (r *run) kernelProbes(cp *capture) {
	if cp.valBlock == nil || cp.batch == nil {
		r.fail("no value block or batch seen on a traced netfab solve (%d messages)", cp.seen)
		return
	}
	fmt.Printf("wire: batch of %d messages\n", cp.batchLen)
	for _, c := range []struct {
		enc, dec string
		encV     any
		decV     any
	}{
		{"wire.enc_ns.val_block", "wire.dec_ns.val_block", cp.valBlock, cp.valBlock},
		{"wire.enc_ns.batch", "wire.dec_ns.batch", cp.batch, cp.batch},
		{"wire.enc_ns.store_req", "wire.dec_ns.store_resp",
			store.Req{ID: 1, Op: store.OpUpdate, Tenant: "t0", Sess: "s0", Tag: 2, X: 1, Val: ones},
			store.Resp{ID: 1, OK: true, Val: ones}},
	} {
		e, _, err := codec(c.encV)
		if err != nil {
			r.fail("%v", err)
			return
		}
		_, d, err := codec(c.decV)
		if err != nil {
			r.fail("%v", err)
			return
		}
		r.set(c.enc, "ns", e)
		r.set(c.dec, "ns", d)
	}

	block := make(pack.Float64s, 256)
	r.set("pack.clone_ns.block", "ns", nsPer(100000, func() { sink = block.Clone() }))
	cell := &octlib.Cell{}
	r.set("pack.clone_ns.cell", "ns", nsPer(100000, func() { sink = cell.Clone() }))

	rng := rand.New(rand.NewSource(r.seed))
	a, b, dst := make([]float64, 256), make([]float64, 256), make([]float64, 256)
	for i := range a {
		a[i], b[i] = rng.Float64(), rng.Float64()
	}
	const gemms = 20000
	ns := nsPer(gemms, func() { sparse.BlockMulSub(dst, a, b, 16, 16, 16) })
	r.set("sparse.gemm_gflops", "Gflop/s", 2*16*16*16/ns)
	m := cholMatrix(r.seed)
	bl := sparse.NewBlocks(sparse.SymbolicFactor(m), cholBlock)
	diag := bl.ExtractBlock(m, 0, 0)
	work := make([]float64, len(diag))
	ns = nsPer(5000, func() { copy(work, diag); sparse.BlockFactor(work, 16) })
	r.set("sparse.factor_gflops", "Gflop/s", 16*16*16/3.0/ns)

	var acc octlib.Vec3
	pos, q := octlib.Vec3{0.1, 0.2, 0.3}, octlib.Vec3{0.5, 0.4, 0.9}
	r.set("octlib.accel_ns", "ns", nsPer(1000000, func() { octlib.Accel(pos, 1.0, q, &acc) }))
	sink = acc
}
