package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"samsys/internal/fabric"
	"samsys/internal/fabric/netfab"
	"samsys/internal/machine"
	"samsys/internal/store"
	"samsys/internal/trace"
)

// The store workload: a client of a samstore cluster built only on
// store.Client and store.Session. One client (one connection per rank)
// drives 64 sessions over 4 tenants, in two kinds of phase. In a closed
// loop, storeConns requests are outstanding at a time and each is timed
// from its send to its answer. In an open loop, arrivals are a seeded
// Poisson process fired on schedule whether or not earlier requests have
// finished, and every request is timed from its scheduled send time, so a
// stall — in the cluster or in this generator — counts against every
// request it delays.

const (
	storeSessions = 64
	storeTenants  = 4
	storeVals     = 4  // read targets per session
	storeAccs     = 2  // update targets per session
	storeValLen   = 16 // elements per object
	storeHot      = 4  // the most popular sessions
	storeBoots    = 5  // cluster set-ups per run; setup_s is their median
	storeConns    = 2  // closed-loop requests outstanding, one per connection

	lightRate  = 4000.0
	loadedRate = 16000.0
	p99Limit   = 25 * time.Millisecond
	probeLen   = 1500 * time.Millisecond
	rateStep   = 1.04 // bisection stops when hi/lo is below this
	maxRate    = 128000.0
)

type opKind uint8

const (
	opUse opKind = iota
	opUpdate
	opCreate
	opChaotic
	opAcqCommit // two-phase: Acquire, then Commit of the value plus one
	numOps
)

var opNames = [numOps]string{"use", "update", "create", "chaotic", "acquire_commit"}

// opMix weights the op kinds. The first four are the repository's own
// load mix (store.Config's default, which samloadgen uses: use 6, update
// 3, create 1, chaotic 2). That mix has no acquire→commit; its weight of 1
// in 13 is an assumption of this benchmark, the share of the rarest class.
var opMix = [numOps]int{opUse: 6, opUpdate: 3, opCreate: 1, opChaotic: 2, opAcqCommit: 1}

type storeOp struct {
	at   time.Duration // scheduled offset from the phase start
	sess int
	kind opKind
	idx  int32
}

// storeRig is one booted cluster with its client and open sessions.
type storeRig struct {
	svc   *store.LocalService
	cl    *store.Client
	sess  []*store.Session
	seed  int64
	pop   []float64 // cumulative session popularity
	hot   []bool
	fresh []atomic.Int32   // per-session create counter
	acked [][]atomic.Int64 // acknowledged increments per session accumulator

	mu       sync.Mutex
	problems []string
	rejects  atomic.Int64
	errors   atomic.Int64
}

func tenantOf(s int) string { return fmt.Sprintf("t%d", s%storeTenants) }

// seeded is the value a session's read target idx holds.
func (g *storeRig) seeded(sess int, idx int32) []float64 {
	v := make([]float64, storeValLen)
	base := float64(g.seed%997)*1e4 + float64(sess)*10 + float64(idx)
	for j := range v {
		v[j] = base + float64(j)/16
	}
	return v
}

// bootStore starts a cluster, dials it, opens the sessions and creates
// their objects. wrap and tr may be nil (the timed runs); the traced run
// passes the span wrapper and a recorder.
func bootStore(ranks int, seed int64, tr *trace.Recorder, wrap func(fabric.Fabric) fabric.Fabric) (*storeRig, error) {
	svc, err := store.StartLocalWrapped(machine.CM5, ranks, store.Options{}, tr, netfab.Options{}, wrap)
	if err != nil {
		return nil, err
	}
	g := &storeRig{svc: svc, seed: seed,
		fresh: make([]atomic.Int32, storeSessions),
		acked: make([][]atomic.Int64, storeSessions),
		hot:   make([]bool, storeSessions),
	}
	g.cl, err = store.Dial(svc.Addr(), 5*time.Second)
	if err != nil {
		svc.Stop()
		return nil, err
	}
	zeros := make([]float64, storeValLen)
	for s := 0; s < storeSessions; s++ {
		ss, err := g.cl.Open(tenantOf(s), fmt.Sprintf("s%d", s))
		if err != nil {
			g.stop()
			return nil, fmt.Errorf("open session %d: %w", s, err)
		}
		g.sess = append(g.sess, ss)
		for i := int32(0); i < storeVals; i++ {
			if err := ss.Create(1, int32(s), i, g.seeded(s, i), 0, false); err != nil {
				g.stop()
				return nil, fmt.Errorf("create value: %w", err)
			}
		}
		for i := int32(0); i < storeAccs; i++ {
			if err := ss.Create(2, int32(s), i, zeros, 0, true); err != nil {
				g.stop()
				return nil, fmt.Errorf("create accumulator: %w", err)
			}
		}
		g.acked[s] = make([]atomic.Int64, storeAccs)
	}
	// Skewed popularity: Zipf weights 1/rank over a seeded session order.
	// The exponent 1 is an assumption of this benchmark (the classic Zipf
	// law); it sends about 44% of requests to the storeHot hottest sessions.
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(storeSessions)
	w := make([]float64, storeSessions)
	for rank, s := range order {
		w[s] = 1 / float64(rank+1)
		g.hot[s] = rank < storeHot
	}
	sum := 0.0
	for s := range w {
		sum += w[s]
		g.pop = append(g.pop, sum)
	}
	for s := range g.pop {
		g.pop[s] /= sum
	}
	return g, nil
}

func (g *storeRig) stop() error {
	g.cl.Close()
	return g.svc.Stop()
}

func (g *storeRig) fail(format string, args ...any) {
	g.mu.Lock()
	g.problems = append(g.problems, fmt.Sprintf(format, args...))
	g.mu.Unlock()
}

// plan draws a Poisson schedule at rate for dur.
func (g *storeRig) plan(rng *rand.Rand, rate float64, dur time.Duration) []storeOp {
	var ops []storeOp
	at := 0.0
	for {
		at += rng.ExpFloat64() / rate
		if at >= dur.Seconds() {
			return ops
		}
		op := g.draw(rng)
		op.at = time.Duration(at * 1e9)
		ops = append(ops, op)
	}
}

// draw picks one request: a session by popularity, a kind by opMix and a
// target object.
func (g *storeRig) draw(rng *rand.Rand) storeOp {
	total := 0
	for _, w := range opMix {
		total += w
	}
	var op storeOp
	op.sess = sort.SearchFloat64s(g.pop, rng.Float64())
	if op.sess >= storeSessions {
		op.sess = storeSessions - 1
	}
	pick := rng.Intn(total)
	for k, w := range opMix {
		if pick < w {
			op.kind = opKind(k)
			break
		}
		pick -= w
	}
	switch op.kind {
	case opUse:
		op.idx = int32(rng.Intn(storeVals))
	case opUpdate, opChaotic, opAcqCommit:
		op.idx = int32(rng.Intn(storeAccs))
	}
	return op
}

// allEqual reports whether every element of v equals v[0], a whole number.
func allEqual(v []float64) bool {
	if len(v) != storeValLen || v[0] != math.Trunc(v[0]) {
		return false
	}
	for _, x := range v {
		if x != v[0] {
			return false
		}
	}
	return true
}

// do executes one op and checks its answer.
func (g *storeRig) do(op storeOp) error {
	s := g.sess[op.sess]
	x := int32(op.sess)
	switch op.kind {
	case opUse:
		v, err := s.Use(1, x, op.idx)
		if err == nil && !slices.Equal(v, g.seeded(op.sess, op.idx)) {
			g.fail("use s%d/%d returned %v, want its seeded value", op.sess, op.idx, v)
		}
		return err
	case opUpdate:
		v, err := s.Update(2, x, op.idx, ones)
		if err == nil {
			g.acked[op.sess][op.idx].Add(1)
			if !allEqual(v) || v[0] < 1 {
				g.fail("update s%d/%d returned %v", op.sess, op.idx, v)
			}
		}
		return err
	case opCreate:
		n := g.fresh[op.sess].Add(1)
		return s.Create(3, x, n, ones, 0, false)
	case opChaotic:
		v, err := s.ReadChaotic(2, x, op.idx)
		if err == nil && !allEqual(v) {
			g.fail("chaotic read s%d/%d returned a torn value %v", op.sess, op.idx, v)
		}
		return err
	case opAcqCommit:
		v, err := s.Acquire(2, x, op.idx)
		if err != nil {
			return err
		}
		if !allEqual(v) {
			g.fail("acquire s%d/%d returned %v", op.sess, op.idx, v)
		}
		next := make([]float64, storeValLen)
		for i := range next {
			next[i] = v[0] + 1
		}
		if err := s.Commit(2, x, op.idx, next); err != nil {
			return err
		}
		g.acked[op.sess][op.idx].Add(1)
	}
	return nil
}

var ones = func() []float64 {
	v := make([]float64, storeValLen)
	for i := range v {
		v[i] = 1
	}
	return v
}()

// phaseResult is one phase's outcome. Latencies are in ms from each
// request's scheduled send time (open loop) or its send (closed loop).
type phaseResult struct {
	rate     float64 // offered requests per second; 0 for a closed loop
	achieved float64 // answered requests per second of phase wall time
	lat, hot []float64
	hotOps   int         // requests to the storeHot hottest sessions
	windows  [][]float64 // lat split by scheduled time into window-long slices
	lagP99   float64     // generator lateness, ms
	backlog  int         // requests scheduled in the phase and unanswered at its end
	failed   int
	attempts int
}

// windowed returns the median over the phase's windows of each window's
// q-quantile. A host stall lands in one window, so this is the figure the
// service shows most of the time, not the one a single stall sets.
func (p *phaseResult) windowed(q float64) float64 {
	var xs []float64
	for _, w := range p.windows {
		if len(w) > 0 {
			xs = append(xs, quantile(w, q))
		}
	}
	return median(xs)
}

func (p *phaseResult) p99() float64 { return p.windowed(0.99) }

// hotShare is the share of the phase's requests that went to the hottest
// sessions.
func (p *phaseResult) hotShare() float64 { return float64(p.hotOps) / float64(max(p.attempts, 1)) }

// pass reports whether the phase met the latency limit without a growing
// backlog: windowed p99 within the limit, no failures, and no more
// requests outstanding at the end than arrive within the limit.
func (p *phaseResult) pass() bool {
	return p.failed == 0 && len(p.lat) > 0 && p.p99() <= ms(p99Limit) &&
		float64(p.backlog) <= math.Max(1, p.rate*p99Limit.Seconds())
}

// phase fires a fresh schedule at rate for dur and waits for every answer.
// Latencies are also kept per window of the scheduled time.
func (g *storeRig) phase(rng *rand.Rand, rate float64, dur, window time.Duration) (*phaseResult, error) {
	ops := g.plan(rng, rate, dur)
	lat := make([]float64, len(ops))
	doneAt := make([]time.Duration, len(ops))
	failed := make([]bool, len(ops))
	lag := make([]float64, 0, len(ops))
	var wg sync.WaitGroup
	start := time.Now()
	for i, op := range ops {
		if d := op.at - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		lag = append(lag, ms(time.Since(start)-op.at))
		wg.Add(1)
		go func(i int, op storeOp) {
			defer wg.Done()
			err := g.do(op)
			el := time.Since(start)
			doneAt[i], lat[i] = el, ms(el-op.at)
			failed[i] = g.record(op, err)
		}(i, op)
	}
	end := dur
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(dur + 20*time.Second):
		return nil, fmt.Errorf("requests at %.0f/s still unanswered 20s after the phase", rate)
	}
	wall := time.Since(start)
	p := &phaseResult{rate: rate, attempts: len(ops), lagP99: quantile(lag, 0.99),
		windows: make([][]float64, (dur+window-1)/window)}
	for i, op := range ops {
		if g.hot[op.sess] {
			p.hotOps++
		}
		if doneAt[i] > end {
			p.backlog++
		}
		if failed[i] {
			p.failed++
			continue
		}
		p.lat = append(p.lat, lat[i])
		p.windows[op.at/window] = append(p.windows[op.at/window], lat[i])
		if g.hot[op.sess] && (op.kind == opUpdate || op.kind == opAcqCommit) {
			p.hot = append(p.hot, lat[i])
		}
	}
	p.achieved = float64(len(p.lat)) / wall.Seconds()
	return p, nil
}

// record counts a failed request as a reject or an error and reports
// whether it failed.
func (g *storeRig) record(op storeOp, err error) bool {
	if err == nil {
		return false
	}
	if strings.Contains(err.Error(), "(reason ") {
		g.rejects.Add(1)
	} else {
		g.errors.Add(1)
	}
	g.fail("%s s%d/%d: %v", opNames[op.kind], op.sess, op.idx, err)
	return true
}

// closedLoop keeps storeConns requests outstanding for dur, each worker
// sending its next request when the last is answered. Each request is timed
// from its send to its answer and filed in the window of its send time.
func (g *storeRig) closedLoop(seed int64, dur, window time.Duration) *phaseResult {
	type worker struct {
		lat    []float64
		at     []time.Duration
		failed int
	}
	ws := make([]worker, storeConns)
	var wg sync.WaitGroup
	start := time.Now()
	for w := range ws {
		wg.Add(1)
		go func(me *worker, rng *rand.Rand) {
			defer wg.Done()
			for {
				at := time.Since(start)
				if at >= dur {
					return
				}
				op := g.draw(rng)
				err := g.do(op)
				if g.record(op, err) {
					me.failed++
					continue
				}
				me.lat = append(me.lat, ms(time.Since(start)-at))
				me.at = append(me.at, at)
			}
		}(&ws[w], rand.New(rand.NewSource(seed+int64(w))))
	}
	wg.Wait()
	p := &phaseResult{windows: make([][]float64, (dur+window-1)/window)}
	for _, w := range ws {
		p.lat = append(p.lat, w.lat...)
		p.failed += w.failed
		p.attempts += len(w.lat) + w.failed
		for i, at := range w.at {
			p.windows[at/window] = append(p.windows[at/window], w.lat[i])
		}
	}
	p.achieved = float64(len(p.lat)) / time.Since(start).Seconds()
	return p
}

// verifyFinal checks that every accumulator holds exactly its
// acknowledged increments. Acquire reads the exclusive current value; the
// commit puts it back unchanged.
func (g *storeRig) verifyFinal() {
	for s, ss := range g.sess {
		for i := int32(0); i < storeAccs; i++ {
			v, err := ss.Acquire(2, int32(s), i)
			if err != nil {
				g.fail("final acquire s%d/%d: %v", s, i, err)
				continue
			}
			want := float64(g.acked[s][i].Load())
			if !allEqual(v) || v[0] != want {
				g.fail("accumulator s%d/%d holds %v, want %g acknowledged increments", s, i, v, want)
			}
			if err := ss.Commit(2, int32(s), i, v); err != nil {
				g.fail("final commit s%d/%d: %v", s, i, err)
			}
		}
	}
}

// maxRate bisects, in log space, between a rate taken to pass and one
// taken to fail, until they are within rateStep of each other. It returns
// the answered-request rate the highest passing probe achieved (zero if
// none passed) and every probe.
func (g *storeRig) maxRate(rng *rand.Rand, lo, hi float64) (float64, []*phaseResult, error) {
	var probes []*phaseResult
	best := 0.0
	for hi/lo > rateStep {
		mid := math.Sqrt(lo * hi)
		p, err := g.phase(rng, mid, probeLen, probeLen/4)
		if err != nil {
			return 0, probes, err
		}
		probes = append(probes, p)
		if p.pass() {
			lo, best = mid, p.achieved
		} else {
			hi = mid
		}
	}
	return best, probes, nil
}

// store runs the timed store workload: storeBoots set-ups, then on the
// last cluster a closed-loop phase, the light and loaded open-loop phases
// and the final accumulator check. The end-to-end latencies come from the
// closed loop: open-loop latency on a small VM follows the host's steal
// (NOTES.md), while the closed loop's follows the store.
func (r *run) store() error {
	g, boots, err := r.bootStores()
	if err != nil {
		return err
	}
	closed := g.closedLoop(r.seed, r.seconds/2, time.Second)
	rng := rand.New(rand.NewSource(r.seed))
	light, err := g.phase(rng, lightRate, r.seconds/4, time.Second)
	if err != nil {
		return err
	}
	loaded, err := g.phase(rng, loadedRate, r.seconds/4, time.Second)
	if err != nil {
		return err
	}
	g.verifyFinal()
	for _, p := range []*phaseResult{closed, light, loaded} {
		r.res.Attempted += int64(p.attempts)
		r.res.Failed += int64(p.failed)
		p.print()
	}
	fmt.Printf("store store.light.p50_ms=%.3f store.light.p99_ms=%.3f store.loaded.p99_ms=%.3f store.hot.p99_ms=%.3f store.hot_share=%.3f loadgen.lag_p99_ms=%.3f loadgen.backlog=%d (hot: %d updates and acquire-commits)\n",
		light.windowed(0.5), light.p99(), loaded.p99(), quantile(loaded.hot, 0.99), loaded.hotShare(), loaded.lagP99, loaded.backlog, len(loaded.hot))
	r.problems = append(r.problems, g.problems...)
	if err := g.stop(); err != nil {
		return err
	}
	r.set("p50_ms", "ms", closed.windowed(0.5))
	r.set("tail_ms", "ms", closed.windowed(0.9))
	r.set("setup_s", "s", median(boots))
	r.set("mem_peak_mb", "MiB", peakRSSMiB())
	return nil
}

// bootStores sets a cluster up storeBoots times, keeping the last, and
// returns each set-up's time in seconds.
func (r *run) bootStores() (*storeRig, []float64, error) {
	var boots []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		g, err := bootStore(r.ranks, r.seed, nil, nil)
		if err != nil {
			return nil, nil, err
		}
		boots = append(boots, time.Since(t0).Seconds())
		if i == storeBoots-1 {
			return g, boots, nil
		}
		if err := g.stop(); err != nil {
			return nil, nil, err
		}
	}
}

func (p *phaseResult) print() {
	if p.rate == 0 {
		fmt.Printf("store closed loop (%d outstanding) achieved=%.0f/s ops=%d p50=%.3fms p90=%.3fms p99=%.3fms (whole phase %.3fms)\n",
			storeConns, p.achieved, p.attempts, p.windowed(0.5), p.windowed(0.9), p.p99(), quantile(p.lat, 0.99))
		return
	}
	fmt.Printf("store rate=%.0f/s achieved=%.0f/s ops=%d p50=%.3fms p90=%.3fms p99=%.3fms (whole phase %.3fms) lag_p99=%.3fms backlog=%d pass=%v\n",
		p.rate, p.achieved, p.attempts, p.windowed(0.5), p.windowed(0.9), p.p99(), quantile(p.lat, 0.99), p.lagP99, p.backlog, p.pass())
}
