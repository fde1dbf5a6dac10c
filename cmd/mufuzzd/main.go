// Command mufuzzd runs the MuFuzz campaign service: a multi-tenant fuzzing
// daemon that time-slices any number of concurrent campaigns over a bounded
// executor pool, shares corpus seeds between campaigns through a persistent
// store, and drains gracefully — every in-flight campaign is snapshotted so
// a restarted daemon resumes exactly where it stopped.
//
// Usage:
//
//	mufuzzd [-addr :8700] [-store mufuzz-store] [-slots 2]
//	        [-slice-rounds 8] [-debug-addr localhost:6060]
//	        [-mutex-profile-fraction 5] [-block-profile-rate 10000]
//
// Submit and watch campaigns over the HTTP JSON API:
//
//	curl -X POST localhost:8700/v1/campaigns -H 'Content-Type: application/json' \
//	     -d '{"example":"crowdsale-buggy","iterations":20000}'
//	curl -X POST localhost:8700/v1/campaigns -H 'Content-Type: application/json' \
//	     -d '{"bytecode":"0x6000...","abi":[...],"iterations":20000}'   # source-free
//	curl localhost:8700/v1/campaigns/c0001
//	curl localhost:8700/v1/campaigns/c0001/findings?minimize=1
//	curl -X POST localhost:8700/v1/drain
//
// SIGINT/SIGTERM drain before exit; restarting with the same -store resumes
// every unfinished campaign.
//
// # Fleet modes
//
// The same binary runs the distributed fleet (see internal/fleet):
//
//	mufuzzd -coordinator [-addr :8700] [-store mufuzz-store] \
//	        [-lease-rounds 8] [-lease-ttl 10s]
//
// runs the fleet coordinator — a control plane that leases campaign slices
// to workers and writes the migration-equivalence transcripts to its
// store as the slices commit — and
//
//	mufuzzd -join http://coordinator:8700 [-worker-name node-a] [-addr :8701]
//
// runs a worker node that pulls and executes leased slices. Workers hold no
// durable state; killing one loses at most the slice in flight, which the
// coordinator re-leases after its TTL. Every mode, the service included,
// serves the same /healthz and /readyz pair on -addr (service.HealthRoutes),
// and a listener that fails ends the process with status 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // -debug-addr pprof endpoints
	"os"
	"os/signal"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"mufuzz/internal/fleet"
	"mufuzz/internal/service"
	"mufuzz/internal/store"
)

func main() {
	var (
		addr        = flag.String("addr", ":8700", "HTTP listen address")
		storeDir    = flag.String("store", "mufuzz-store", "persistent store directory")
		slots       = flag.Int("slots", 2, "concurrent campaign slices (bounded executor pool)")
		sliceRounds = flag.Int("slice-rounds", 8, "energy rounds per scheduling slice")
		iters       = flag.Int("iters", 20000, "default campaign budget when a spec omits one")
		debugAddr   = flag.String("debug-addr", "", "optional pprof listen address (e.g. localhost:6060); off when empty")
		mutexFrac   = flag.Int("mutex-profile-fraction", 0, "sample 1/n of mutex contention events for /debug/pprof/mutex (0 = off)")
		blockRate   = flag.Int("block-profile-rate", 0, "sample goroutine blocking events >= n ns for /debug/pprof/block (0 = off)")

		coordinator = flag.Bool("coordinator", false, "run the fleet coordinator instead of the single-node service")
		leaseRounds = flag.Int("lease-rounds", 8, "coordinator: energy rounds per leased slice")
		leaseTTL    = flag.Duration("lease-ttl", 10*time.Second, "coordinator: lease lifetime without a heartbeat")
		join        = flag.String("join", "", "worker mode: coordinator base URL to pull leased slices from")
		workerName  = flag.String("worker-name", "", "worker mode: node name (default host:pid)")
	)
	flag.Parse()

	if *debugAddr != "" {
		// net/http/pprof registers its handlers on http.DefaultServeMux; serve
		// that mux on a separate listener so profiling endpoints never share a
		// port with the campaign API. The contention endpoints (mutex, block)
		// report nothing until their runtime sampling rates are set — opt in
		// with -mutex-profile-fraction / -block-profile-rate, since both tax
		// the executor hot path.
		if *mutexFrac > 0 {
			runtime.SetMutexProfileFraction(*mutexFrac)
		}
		if *blockRate > 0 {
			runtime.SetBlockProfileRate(*blockRate)
		}
		go func() {
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "mufuzzd: debug-addr:", err)
			}
		}()
		fmt.Printf("mufuzzd: pprof debug server on http://%s/debug/pprof/\n", *debugAddr)
	}

	switch {
	case *coordinator && *join != "":
		fmt.Fprintln(os.Stderr, "mufuzzd: -coordinator and -join are mutually exclusive")
		os.Exit(1)
	case *coordinator:
		os.Exit(runCoordinator(*addr, *storeDir, *leaseRounds, *leaseTTL, *iters))
	case *join != "":
		os.Exit(runWorker(*addr, *join, *workerName))
	}

	st, err := store.Open(*storeDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mufuzzd:", err)
		os.Exit(1)
	}
	svc := service.New(service.Config{
		Store:             st,
		Slots:             *slots,
		SliceRounds:       *sliceRounds,
		DefaultIterations: *iters,
	})
	if err := svc.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "mufuzzd:", err)
		os.Exit(1)
	}
	resumed := 0
	for _, s := range svc.Statuses() {
		if s.State == service.StateQueued || s.State == service.StateRunning {
			resumed++
		}
	}
	fmt.Printf("mufuzzd: listening on %s, store %s, %d slot(s), %d campaign(s) resumed\n",
		*addr, *storeDir, *slots, resumed)

	os.Exit(serve(*addr, svc.Handler(), "draining", func(ctx context.Context) int {
		<-ctx.Done()
		n := svc.Drain()
		fmt.Printf("mufuzzd: drained %d campaign(s) to %s\n", n, *storeDir)
		return 0
	}))
}

// runCoordinator serves the fleet control plane until SIGINT/SIGTERM.
func runCoordinator(addr, storeDir string, rounds int, ttl time.Duration, iters int) int {
	st, err := store.Open(storeDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mufuzzd:", err)
		return 1
	}
	co := fleet.NewCoordinator(fleet.CoordinatorConfig{
		Store:             st,
		Rounds:            rounds,
		LeaseTTL:          ttl,
		DefaultIterations: iters,
	})
	fmt.Printf("mufuzzd: fleet coordinator on %s, store %s, %d round(s)/slice, lease TTL %s\n",
		addr, storeDir, rounds, ttl)

	return serve(addr, co.Handler(), "shutting down coordinator", func(ctx context.Context) int {
		<-ctx.Done()
		return 0
	})
}

// runWorker pulls and executes leased slices until SIGINT/SIGTERM. A
// slice in flight at shutdown is abandoned (never committed mid-slice);
// its lease lapses and the coordinator re-grants it elsewhere.
func runWorker(addr, coordinatorURL, name string) int {
	if name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	client := fleet.NewClient(coordinatorURL, time.Now().UnixNano())
	w := fleet.NewWorker(name, client)

	// The worker serves its own liveness/readiness: ready once the
	// coordinator has answered readyz, so orchestrators gate on worker
	// readiness instead of sleep-and-poll.
	var ready atomic.Bool
	mux := http.NewServeMux()
	service.HealthRoutes(mux, func() map[string]any {
		return map[string]any{"ok": true, "worker": name}
	}, func() (bool, string) {
		if !ready.Load() {
			return false, "coordinator not reachable yet"
		}
		return true, ""
	})
	return serve(addr, mux, "abandoning slice in flight and exiting", func(ctx context.Context) int {
		fmt.Printf("mufuzzd: worker %s joining fleet at %s\n", name, coordinatorURL)
		if err := client.WaitReady(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "mufuzzd: coordinator never became ready:", err)
			return 1
		}
		ready.Store(true)
		fmt.Printf("mufuzzd: worker %s ready\n", name)
		if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "mufuzzd:", err)
			return 1
		}
		return 0
	})
}

// serve serves h on addr while run works and returns run's exit status.
// run's context ends on SIGINT or SIGTERM, which serve announces as
// "mufuzzd: <signal> — <onSignal>", or when the listener fails, which also
// makes the exit status 1. Once run returns, in-flight requests get five
// seconds to finish.
func serve(addr string, h http.Handler, onSignal string, run func(context.Context) int) int {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv := &http.Server{Addr: addr, Handler: h}
	var failed atomic.Bool
	go func() {
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "mufuzzd:", err)
			failed.Store(true)
			cancel()
		}
	}()
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case sig := <-sigc:
			fmt.Printf("mufuzzd: %v — %s\n", sig, onSignal)
			cancel()
		case <-ctx.Done():
		}
	}()
	status := run(ctx)
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	_ = srv.Shutdown(sctx)
	if failed.Load() {
		return 1
	}
	return status
}
