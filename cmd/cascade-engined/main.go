// Command cascade-engined is the remote engine daemon: it hosts Cascade
// engines behind the message-passing engine protocol, so a cascade
// runtime on another process (or machine) can ship subprograms to it
// with -remote-engine / cascade.WithRemoteEngine and drive them over
// TCP. The daemon owns its own simulated fabric and vendor-toolchain
// model: spawned engines start in its software interpreter and are
// JIT-promoted onto its device in the background, exactly as a local
// runtime would promote them — the client only sees the location flip
// in the reply envelopes.
//
// The daemon is multi-session: clients may open private sessions
// (cascade -session-quota / cascade.WithRemoteSession), each of which
// carves a spatial region out of the daemon's fabric and gets its own
// toolchain tenant — namespaced bitstream cache, fair-share compile
// workers. Sessionless clients keep the legacy behavior of sharing the
// whole fabric. -session-quota sets the region size granted when a
// session opens without asking for one (default: a quarter of the
// fabric).
//
// Usage:
//
//	cascade-engined                      # listen on 127.0.0.1:9925
//	cascade-engined -listen :9000        # any interface, port 9000
//	cascade-engined -compile-scale 600   # speed up the virtual toolchain
//	cascade-engined -cache-dir d         # persist bitstreams across runs
//	cascade-engined -no-jit              # pin hosted engines to software
//	cascade-engined -session-quota 25000 # default region for sessions
//	                                     # that don't request a size
//	cascade-engined -observe 127.0.0.1:9926  # serve the daemon's own
//	                                     # /metrics, /trace, /debug/pprof
//	cascade-engined -journal host.journal    # survive restarts: sessions
//	                                     # and engines re-bind on boot
//	cascade-engined -max-queue 64        # shed compile submissions past
//	                                     # this in-flight bound
//	cascade-engined -compile-worker      # also serve the compile-farm
//	                                     # protocol: remote FarmBackends
//	                                     # shard flows onto this daemon
//	cascade-engined -compile-worker -peers 127.0.0.1:9925,127.0.0.1:9927
//	                                     # consult sibling workers' caches
//	                                     # before place-and-route
//
// With -compile-worker the daemon hosts the worker side of compile
// flows: clients started with -compile-farm (or cascade.WithCompileFarm)
// ship it netlist summaries and get back verified flow outcomes, served
// from its memory cache, its -cache-dir store, its -peers siblings, or
// a fresh run of the place-and-route model — so a cold client process
// reaches hardware at network-cache-hit latency.
//
// With -journal, the daemon appends every registry mutation (session
// opens, spawns, state installs, ends) to the named file and replays it
// on boot, re-binding the same session and engine IDs — so a client
// that reconnects after a daemon crash finds its engines where it left
// them. Execution progress since the last state install is NOT in the
// journal; a supervised client detects the restart via the boot epoch
// and re-seeds from its own committed state instead.
//
// SIGTERM (or an interrupt) stops the daemon cleanly: it stops
// accepting connections, syncs and closes the journal, and exits 0.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"cascade/internal/fpga"
	"cascade/internal/obsv"
	"cascade/internal/toolchain"
	"cascade/internal/transport"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:9925", "TCP address to serve the engine protocol on")
	scale := flag.Float64("compile-scale", 600, "divide virtual compile latency (1 = paper-faithful)")
	cacheDir := flag.String("cache-dir", "", "persist compiled bitstreams here across processes")
	noJIT := flag.Bool("no-jit", false, "pin hosted engines to software (no fabric promotion)")
	sessQuota := flag.Int("session-quota", 0, "default fabric region in LEs for sessions that open without a quota (0 = a quarter of the fabric)")
	observe := flag.String("observe", "", "serve /metrics, /trace, and /debug/pprof on this address (e.g. 127.0.0.1:0)")
	journal := flag.String("journal", "", "journal registry mutations here and resume sessions/engines on restart")
	maxQueue := flag.Int("max-queue", 0, "shed compile submissions past this many in flight (0 = unbounded)")
	compileWorker := flag.Bool("compile-worker", false, "serve the compile-farm protocol (host the worker side of compile flows)")
	peers := flag.String("peers", "", "comma-separated sibling compile-worker addresses to consult before place-and-route")
	flag.Parse()

	var obs *obsv.Observer
	if *observe != "" {
		obs = obsv.New(obsv.Options{Addr: *observe})
		if err := obs.StartHTTP(); err != nil {
			fmt.Fprintf(os.Stderr, "cascade-engined: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("[cascade-engined] observability endpoint on http://%s (/metrics, /trace, /debug/pprof)\n", obs.HTTPAddr())
	}
	dev := fpga.NewCycloneV()
	tco := toolchain.DefaultOptions()
	tco.Scale = *scale
	tco.CacheDir = *cacheDir
	tco.MaxQueue = *maxQueue
	var peerAddrs []string
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerAddrs = append(peerAddrs, p)
			}
		}
	}
	host := transport.NewHost(transport.HostOptions{
		Device:                 dev,
		Toolchain:              toolchain.New(dev, tco),
		DisableJIT:             *noJIT,
		DefaultSessionQuotaLEs: *sessQuota,
		Observer:               obs,
		CompileWorker:          *compileWorker,
		Peers:                  peerAddrs,
	})
	if *compileWorker {
		fmt.Printf("[cascade-engined] compile worker enabled (%d peer(s))\n", len(peerAddrs))
	}
	if *journal != "" {
		sessions, engines, err := host.EnableJournal(*journal)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cascade-engined: journal: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("[cascade-engined] journal %s: resumed %d session(s), %d engine(s)\n",
			*journal, sessions, engines)
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cascade-engined: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("[cascade-engined] listening on %s\n", l.Addr())
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-stop
		l.Close()
	}()
	if err := host.ServeListener(l); !errors.Is(err, net.ErrClosed) {
		fmt.Fprintf(os.Stderr, "cascade-engined: %v\n", err)
		os.Exit(1)
	}
	if err := host.CloseJournal(); err != nil {
		fmt.Fprintf(os.Stderr, "cascade-engined: journal: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("[cascade-engined] stopped")
}
