// Command s4e-serve runs the long-running analysis job service: an HTTP
// server accepting emulation runs, fault-injection campaigns, WCET
// analyses, QTA co-simulations, guest-binary lints and ISA-subset
// analyses as JSON jobs on a bounded worker pool. Jobs over the same
// binary share one golden run and one compiled translation pool, fault
// campaigns can be sharded across the pool (`fault.shards`), and with
// -state the service journals every submission and terminal transition
// to an append-only JSONL store — a restarted server replays the
// journal, restores finished jobs (status and result), and re-queues
// jobs that were queued or running at the crash. Submissions carrying
// an Idempotency-Key are deduplicated against retained jobs, across
// restarts included.
//
// Usage:
//
//	s4e-serve [-addr :8080] [-workers N] [-queue 16] [-timeout 60s]
//	          [-budget 10000000] [-state DIR] [-retain 4096]
//	          [-retain-ttl 0] [-drain 30s]
//
// The API:
//
//	POST   /v1/jobs             submit a job (JSON body; 202/400/429/503,
//	                            200 on an Idempotency-Key replay)
//	GET    /v1/jobs             list jobs
//	GET    /v1/jobs/{id}        job status
//	GET    /v1/jobs/{id}/result result (202 until terminal)
//	GET    /v1/jobs/{id}/events lifecycle + campaign progress (SSE)
//	DELETE /v1/jobs/{id}        cancel
//	GET    /metrics             Prometheus metrics
//	GET    /healthz             liveness
//
// SIGINT/SIGTERM drain the server: the listener stops accepting, queued
// and running jobs finish (bounded by -drain), then the process exits
// 0. Exit status: 0 on clean shutdown, 1 on runtime failure, 2 on usage
// error.
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
	"runtime"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/store"
)

// Connection timeouts: a client gets this long to send its request
// headers, and an idle keep-alive connection is closed after idleTimeout.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", runtime.NumCPU(), "parallel job executors")
	queue := flag.Int("queue", 16, "bounded queue depth (full queue sheds with 429)")
	timeout := flag.Duration("timeout", 60*time.Second, "default per-job execution timeout")
	budget := flag.Uint64("budget", 10_000_000, "default per-job instruction budget")
	state := flag.String("state", "",
		"state directory for the persistent job journal (empty = in-memory only)")
	retain := flag.Int("retain", 4096, "finished jobs kept in memory before eviction")
	retainTTL := flag.Duration("retain-ttl", 0,
		"additionally evict finished jobs older than this (0 = no TTL)")
	drain := flag.Duration("drain", 30*time.Second,
		"shutdown grace period before running jobs are cancelled")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: s4e-serve [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	var st *store.Store
	if *state != "" {
		var err error
		st, err = store.Open(*state)
		if err != nil {
			fmt.Fprintln(os.Stderr, "s4e-serve:", err)
			os.Exit(1)
		}
		if n := len(st.Replay()); n > 0 || st.Torn() > 0 {
			fmt.Fprintf(os.Stderr, "s4e-serve: journal %s: %d records (%d torn)\n",
				st.Path(), n, st.Torn())
		}
	}

	srv := serve.New(serve.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		DefaultTimeout: *timeout,
		DefaultBudget:  *budget,
		MaxTerminal:    *retain,
		TerminalTTL:    *retainTTL,
		Store:          st,
	})
	// No WriteTimeout: job event streams stay open for a job's lifetime.
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	// Signals are caught before the address is announced: a SIGTERM sent
	// as soon as the server is reachable drains it instead of killing it.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "s4e-serve:", err)
		os.Exit(1)
	}
	// The resolved address (not the flag) so -addr :0 is scriptable.
	fmt.Fprintf(os.Stderr, "s4e-serve: listening on %s (%d workers, queue %d)\n",
		ln.Addr(), *workers, *queue)

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		// Listener failed before any signal (bad address, port in use).
		fmt.Fprintln(os.Stderr, "s4e-serve:", err)
		os.Exit(1)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "s4e-serve: %v: draining (grace %v)\n", sig, *drain)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "s4e-serve: http shutdown:", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "s4e-serve: drain incomplete:", err)
	}
	if st != nil {
		if err := st.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "s4e-serve: journal close:", err)
		}
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "s4e-serve:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "s4e-serve: drained, bye")
}
