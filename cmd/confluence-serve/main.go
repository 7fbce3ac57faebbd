// Command confluence-serve runs the simulation daemon: an HTTP/JSON job
// API in front of the confluence engine.
//
// Usage:
//
//	confluence-serve [-addr :8455] [-queue 64] [-workers 2]
//	                 [-quota-rps 0] [-quota-burst 4] [-drain-timeout 60s]
//	                 [-store DIR] [-store-max-bytes N] [-fleet DIR]
//
// Clients POST JobSpecs to /jobs (see the README's Serving section for
// the schema and endpoints), stream progress from /jobs/{id}/events, and
// page results from /jobs/{id}/result. Submissions shed with 503 when the
// queue is full and with 429 when a client exceeds its token-bucket quota
// (-quota-rps sustained submissions per second, bursts of -quota-burst;
// 0 disables quotas).
//
// SIGINT/SIGTERM drains gracefully: new submissions are rejected, jobs
// already accepted run to completion (up to -drain-timeout), then the
// process exits 0. A second signal aborts immediately.
//
// With -store, every simulated cell persists to the content-addressed
// on-disk per-cell store: a spec of any kind whose cells are all stored
// (by this daemon, a restarted one, a `-store` CLI run or a library run)
// is done at accept, and a partly stored one simulates only the missing
// cells. -store-max-bytes caps the store's size with least-recently-used
// eviction (0 = unlimited).
//
// With -fleet (requires -store), jobs of every kind run through a
// lease-based work-stealing fleet: each job publishes its cell grid under
// the fleet directory and `confluence-sim -fleet-worker` processes
// pointed there compute cells alongside the daemon. With no workers
// attached jobs execute inline as before; results are byte-identical
// either way.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"confluence/internal/serve"
	"confluence/internal/store"
)

func main() {
	addr := flag.String("addr", ":8455", "listen address")
	queue := flag.Int("queue", 64, "queued-job depth before submissions shed with 503")
	workers := flag.Int("workers", 2, "jobs executing concurrently")
	quotaRPS := flag.Float64("quota-rps", 0, "per-client sustained submissions per second (0 = no quota)")
	quotaBurst := flag.Int("quota-burst", 4, "per-client submission burst depth")
	drainTimeout := flag.Duration("drain-timeout", 60*time.Second, "max wait for accepted jobs on shutdown")
	storeDir := flag.String("store", "", "durable per-cell result store directory: cells persist, and a submission whose cells are all stored is done at accept")
	storeMaxBytes := flag.Int64("store-max-bytes", 0, "store size cap in bytes with LRU eviction (0 = unlimited; needs -store)")
	fleetDir := flag.String("fleet", "", "fleet coordination directory: jobs publish cell grids here for -fleet-worker processes (needs -store)")
	flag.Parse()

	if *fleetDir != "" && *storeDir == "" {
		fatal(errors.New("-fleet needs -store (fleet cells land in the durable store)"))
	}
	if *storeDir != "" {
		// Fail fast on an unusable store directory rather than degrading
		// every Put into a silent no-op for the daemon's whole lifetime.
		if err := os.MkdirAll(*storeDir, 0o755); err != nil {
			fatal(err)
		}
		if *storeMaxBytes > 0 {
			store.Open(*storeDir).SetMaxBytes(*storeMaxBytes)
		}
	} else if *storeMaxBytes > 0 {
		fatal(errors.New("-store-max-bytes needs -store"))
	}

	srv := serve.New(serve.Config{
		QueueDepth: *queue,
		Workers:    *workers,
		QuotaRPS:   *quotaRPS,
		QuotaBurst: *quotaBurst,
		StoreDir:   *storeDir,
		FleetDir:   *fleetDir,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	fmt.Printf("confluence-serve: listening on %s (queue=%d workers=%d)\n", ln.Addr(), *queue, *workers)
	if *storeDir != "" {
		fmt.Printf("confluence-serve: result store at %s\n", store.Open(*storeDir).Dir())
	}
	if *fleetDir != "" {
		fmt.Printf("confluence-serve: fleet coordination at %s\n", *fleetDir)
	}

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		fatal(err)
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "confluence-serve: %v, draining (second signal aborts)\n", s)
	}

	// Graceful drain: reject new work, finish what was accepted. A second
	// signal or the drain timeout cuts jobs off via Close.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	ctx, cancelTimeout := context.WithTimeout(ctx, *drainTimeout)
	defer cancelTimeout()
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "confluence-serve: drain cut short: %v\n", err)
	}
	srv.Close()

	shCtx, shCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shCancel()
	if err := hs.Shutdown(shCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		hs.Close()
	}
	fmt.Fprintln(os.Stderr, "confluence-serve: drained, exiting")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "confluence-serve:", err)
	os.Exit(1)
}
