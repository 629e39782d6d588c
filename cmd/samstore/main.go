// Command samstore runs the shared-object service: a netfab cluster whose
// ranks host tenant sessions and serve the store client protocol on the
// same listeners the rank links use.
//
// Spawn a whole localhost cluster (the parent prints rank 0's client
// address and orchestrates):
//
//	samstore -n 4
//
// Or join rank by rank, as with samnode:
//
//	samstore -n 4 -rank 0 -listen 127.0.0.1:7100
//	samstore -n 4 -rank 1 -rendezvous 127.0.0.1:7100
//	...
//
// Each rank serves until -run-for elapses (or SIGINT/SIGTERM in join
// mode), then the cluster runs down cleanly: external queues close,
// queued requests finish, the SAM world completes its end-of-run barrier.
// With -stats every rank prints its per-tenant counters at that interval
// and once at exit.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"samsys/internal/core"
	"samsys/internal/fabric/netfab"
	"samsys/internal/machine"
	"samsys/internal/store"
)

var (
	nNodes     = flag.Int("n", 2, "cluster size (OS processes)")
	rank       = flag.Int("rank", -1, "rank to join as; -1 spawns the whole cluster locally")
	rendezvous = flag.String("rendezvous", "", "address of rank 0's listener (required for rank > 0)")
	listen     = flag.String("listen", "", "listen address (rank 0 should pick a port peers can name)")
	fabricName = flag.String("fabric", "tcp", "data-link transport: tcp | shm (shm lanes between co-located ranks, TCP across hosts)")
	shmDir     = flag.String("shm-dir", "", "directory for this rank's shm lane segments (default shmfab's, typically /dev/shm)")
	profName   = flag.String("profile", "cm5", "machine profile for cost accounting")
	runFor     = flag.Duration("run-for", 0, "serve for this long then shut down (0 = until SIGINT)")
	statsEvery = flag.Duration("stats", 0, "print per-tenant counters at this interval (0 = only at exit)")

	maxSessions = flag.Int("max-sessions", 0, "per-tenant session quota (0 = store default)")
	maxBytes    = flag.Int64("max-bytes", 0, "per-tenant live-byte quota (0 = store default)")
	idleTimeout = flag.Duration("idle-timeout", 0, "session idle reclamation timeout (0 = store default)")

	bootTimeout = flag.Duration("boot-timeout", 30*time.Second, "bootstrap and dial timeout")
	linkRetry   = flag.Duration("link-retry", 0, "data-link outage budget before the fabric fails (0 = netfab default)")
	writeTO     = flag.Duration("write-timeout", 0, "per-flush write deadline on data and ack frames (0 = netfab default)")
	dialBackoff = flag.Duration("dial-backoff", 0, "initial dial-retry delay (0 = netfab default)")
	dialBackMax = flag.Duration("dial-backoff-max", 0, "cap on the exponential dial-retry delay (0 = netfab default)")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "samstore: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	if *rank < 0 {
		return spawnCluster()
	}
	return joinAndServe()
}

func fabricOptions() (netfab.Options, error) {
	o := netfab.Options{
		Boot:           *bootTimeout,
		LinkRetry:      *linkRetry,
		Write:          *writeTO,
		DialBackoff:    *dialBackoff,
		DialBackoffMax: *dialBackMax,
		ShmDir:         *shmDir,
	}
	switch *fabricName {
	case "tcp":
	case "shm":
		o.Shm = netfab.ShmAuto
	default:
		return o, fmt.Errorf("unknown -fabric %q (want tcp or shm)", *fabricName)
	}
	return o, nil
}

// joinAndServe joins as one rank and serves until shutdown.
func joinAndServe() error {
	prof, err := machine.ByName(*profName)
	if err != nil {
		return err
	}
	fabOpts, err := fabricOptions()
	if err != nil {
		return err
	}
	fab, err := netfab.Join(netfab.Config{
		Rank: *rank, N: *nNodes,
		Rendezvous: *rendezvous,
		Listen:     *listen,
		Profile:    prof,
		Opts:       fabOpts,
	})
	if err != nil {
		return err
	}
	w := core.NewWorld(fab, core.Options{Coalesce: true})
	srv := store.New(w, *rank, *nNodes, store.Options{
		MaxSessionsPerTenant:  *maxSessions,
		MaxLiveBytesPerTenant: *maxBytes,
		IdleTimeout:           *idleTimeout,
	}, nil)
	srv.Attach(fab)
	fmt.Printf("serving: rank %d of %d on %s\n", *rank, *nNodes, fab.Addr())

	// Shutdown: a timer (-run-for) or a signal closes the external
	// queues; every rank drains its queue and the world runs down.
	stop := make(chan struct{})
	var stopOnce sync.Once
	shutdown := func() { stopOnce.Do(func() { close(stop) }) }
	go func() {
		<-stop
		w.CloseExternal()
	}()
	if *runFor > 0 {
		time.AfterFunc(*runFor, shutdown)
	} else {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sig
			shutdown()
		}()
	}
	if *statsEvery > 0 {
		go func() {
			t := time.NewTicker(*statsEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					printStats(w, srv)
				case <-stop:
					return
				}
			}
		}()
	}
	err = w.Run(func(c *core.Ctx) { srv.Serve(c) })
	shutdown()
	printStats(nil, srv) // world is down; read directly, nothing mutates now
	return err
}

// printStats snapshots the per-tenant counters. While the world is
// serving, the snapshot must be taken on the rank's application process
// (Submit); after Run returns the state is quiescent and nil may be
// passed for w.
func printStats(w *core.World, srv *store.Server) {
	lines := make(chan []string, 1)
	take := func(*core.Ctx) { lines <- srv.StatLines() }
	if w != nil {
		if !w.Submit(*rank, take) {
			return
		}
	} else {
		take(nil)
	}
	for _, l := range <-lines {
		fmt.Printf("rank %d %s\n", *rank, l)
	}
}

// spawnCluster re-executes this binary once per rank on localhost.
func spawnCluster() error {
	if os.Getenv("SAMSTORE_CHILD") != "" {
		return fmt.Errorf("refusing to spawn: already a spawned child (bad flags?), args %q", os.Args[1:])
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	addr, err := freeLoopbackAddr()
	if err != nil {
		return err
	}
	if _, err := fabricOptions(); err != nil {
		return err // reject a bad -fabric before forking N children
	}
	common := []string{
		"-n", fmt.Sprint(*nNodes),
		"-fabric", *fabricName,
		"-profile", *profName,
		"-run-for", runFor.String(),
		"-stats", statsEvery.String(),
		"-max-sessions", fmt.Sprint(*maxSessions),
		"-max-bytes", fmt.Sprint(*maxBytes),
		"-idle-timeout", idleTimeout.String(),
		"-boot-timeout", bootTimeout.String(),
		"-link-retry", linkRetry.String(),
		"-write-timeout", writeTO.String(),
		"-dial-backoff", dialBackoff.String(),
		"-dial-backoff-max", dialBackMax.String(),
	}
	if *shmDir != "" {
		common = append(common, "-shm-dir", *shmDir)
	}
	var mu sync.Mutex
	cmds := make([]*exec.Cmd, *nNodes)
	for k := 0; k < *nNodes; k++ {
		args := append([]string{}, common...)
		args = append(args, "-rank", fmt.Sprint(k))
		if k == 0 {
			args = append(args, "-listen", addr)
		} else {
			args = append(args, "-rendezvous", addr)
		}
		cmd := exec.Command(self, args...)
		cmd.Env = append(os.Environ(), "SAMSTORE_CHILD=1")
		out := &prefixWriter{prefix: fmt.Sprintf("[rank %d] ", k), w: os.Stdout, mu: &mu}
		cmd.Stdout = out
		cmd.Stderr = out
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("spawn rank %d: %w", k, err)
		}
		cmds[k] = cmd
	}
	// Forward the parent's SIGINT to the children so ^C shuts the whole
	// cluster down instead of orphaning it.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		for _, cmd := range cmds {
			if cmd.Process != nil {
				cmd.Process.Signal(s)
			}
		}
	}()
	var firstErr error
	for k, cmd := range cmds {
		if err := cmd.Wait(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("rank %d: %w", k, err)
		}
	}
	return firstErr
}

func freeLoopbackAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// prefixWriter prefixes each output line with the child's rank.
type prefixWriter struct {
	prefix string
	w      io.Writer
	mu     *sync.Mutex
	buf    []byte
}

func (p *prefixWriter) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.buf = append(p.buf, b...)
	for {
		i := strings.IndexByte(string(p.buf), '\n')
		if i < 0 {
			return len(b), nil
		}
		line := p.buf[:i+1]
		if _, err := io.WriteString(p.w, p.prefix+string(line)); err != nil {
			return len(b), err
		}
		p.buf = p.buf[i+1:]
	}
}
