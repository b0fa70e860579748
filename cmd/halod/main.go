// Command halod is the HALO optimization daemon: the service layer of
// internal/service behind a plain HTTP listener. Training machines upload
// program and profile images, the daemon merges profiles, runs the
// pipeline on a bounded worker pool, and serves the optimized artifacts
// (group reports, rewritten binaries, allocator policies) from a
// content-addressed cache. Metrics are served at GET /metrics (Prometheus
// text format); -debug-addr opens a second, normally private listener with
// net/http/pprof, expvar and another /metrics.
//
//	halod [-addr :7920] [-workers N] [-queue N] [-max-upload BYTES]
//	      [-debug-addr :7921]
//
// -workers bounds the jobs that run at once. The training runs a job
// makes itself (training_runs > 1) fan out over the process-wide pool of
// internal/pool, which GOMAXPROCS alone sizes.
//
// Typical session (see README.md for the full walkthrough):
//
//	halo build -w povray -o povray.hbin
//	halo profile -seed 3 -o povray.s3.hprof povray.hbin
//	curl --data-binary @povray.hbin   $H/v1/programs
//	curl --data-binary @povray.s3.hprof $H/v1/profiles
//	curl -d '{"program":"...","profiles":["..."]}' $H/v1/optimize
//	curl "$H/v1/jobs/job-000001?wait=1"
//	curl -o povray.halo.hbin $H/v1/jobs/job-000001/binary
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"halo/internal/obs"
	"halo/internal/service"
)

func main() {
	addr := flag.String("addr", ":7920", "listen address")
	debugAddr := flag.String("debug-addr", "", "debug listener (pprof, expvar, metrics); empty = off")
	workers := flag.Int("workers", 0, "optimization worker pool size (0 = service default)")
	queue := flag.Int("queue", 0, "job queue depth (0 = service default)")
	maxUpload := flag.Int64("max-upload", 0, "max upload size in bytes (0 = service default)")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	srv := service.New(service.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		MaxUploadBytes: *maxUpload,
		Logger:         logger,
	})
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	if *debugAddr != "" {
		go serveDebug(logger, *debugAddr)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-stop
		logger.Info("shutting down")
		// The drain window must outlast the service's longest handler:
		// GET /v1/jobs/{id}?wait=1 long-polls for up to five minutes.
		ctx, cancel := context.WithTimeout(context.Background(), 6*time.Minute)
		defer cancel()
		httpSrv.Shutdown(ctx)
	}()

	logger.Info("listening",
		"addr", *addr, "workers", srv.Stats().Workers, "build", obs.Build().String())
	err := httpSrv.ListenAndServe()
	if err == http.ErrServerClosed {
		// Shutdown closed the listener; wait for in-flight requests
		// (long-polling job waiters included) to finish draining.
		<-drained
	}
	srv.Close() // drain the worker pool
	if err != nil && err != http.ErrServerClosed {
		fmt.Fprintf(os.Stderr, "halod: %v\n", err)
		os.Exit(1)
	}
}

// serveDebug runs the private debug listener: pprof, expvar, and the
// process-wide metrics (the service's own registry lives on the main
// listener's /metrics, which also renders the process registry).
func serveDebug(logger *slog.Logger, addr string) {
	expvar.Publish("halo_metrics", expvar.Func(func() any {
		return obs.Default.Snapshot()
	}))
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		obs.Default.WritePrometheus(w)
	})
	logger.Info("debug listener", "addr", addr)
	dbg := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	if err := dbg.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		logger.Error("debug listener failed", "err", err)
	}
}
