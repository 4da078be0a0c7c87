// Command wsanalyzed is the long-running service mode of the working-set
// analysis pipeline: it accepts analysis jobs over HTTP, runs them on
// the instrumented harness with bounded concurrency, and exposes the
// observability registry.
//
// Usage:
//
//	wsanalyzed [-addr host:port] [-max-jobs n]
//
// Endpoints:
//
//	POST /analyze        submit a job ({"kind":"table","table":2,...});
//	                     returns {"id":"job-1","status":"queued"}
//	GET  /jobs           list the retained jobs in submission order
//	GET  /jobs/{id}      job state; "done" carries the rendered result
//	                     (404 once the record is evicted)
//	GET  /metrics        Prometheus exposition (?format=text|json for
//	                     the plain-text or JSON encodings)
//	GET  /healthz        liveness + draining state
//	GET  /debug/pprof/   net/http/pprof
//
// Jobs with the same configuration share one harness.Suite, so a
// repeated request reuses the VM passes and profiles of the jobs before
// it. Idle suites and finished job records are kept up to fixed caps
// (maxIdleSuites, maxFinishedJobs).
//
// On SIGINT/SIGTERM the server drains: new submissions get 503,
// in-flight jobs run to completion, then the listener shuts down.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"repro/internal/obs"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:8090", "listen address")
		maxJobs = flag.Int("max-jobs", runtime.GOMAXPROCS(0), "maximum concurrently executing jobs")
	)
	flag.Parse()

	if err := serve(*addr, *maxJobs); err != nil {
		fmt.Fprintln(os.Stderr, "wsanalyzed:", err)
		os.Exit(1)
	}
}

func serve(addr string, maxJobs int) error {
	s := newServer(obs.NewRegistry(), maxJobs)
	srv := &http.Server{Addr: addr, Handler: s.handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "wsanalyzed: listening on %s (max %d concurrent jobs)\n", addr, maxJobs)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err // listener failed before any signal
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "wsanalyzed: draining (in-flight jobs run to completion)")
	s.beginDrain()
	s.waitIdle()
	if err := srv.Shutdown(context.Background()); err != nil {
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(os.Stderr, "wsanalyzed: shut down cleanly")
	return nil
}
