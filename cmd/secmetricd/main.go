// Command secmetricd is the clairvoyance-as-a-service scoring daemon: it
// loads one or more trained models at startup and serves the paper's
// "evaluate every change" loop (§5.3, Fig. 4) over HTTP, so developer
// tooling queries a long-lived process instead of paying model load and
// corpus training per invocation.
//
// Endpoints:
//
//	POST /v1/score          security report of a JSON-encoded source tree
//	POST /v1/analyze        raw code-property vector
//	POST /v1/analyze/stream NDJSON per-file progress, then the batch response
//	POST /v1/findings       CWE-mapped findings stream
//	POST /v1/findings/stream NDJSON per-file findings, then the batch report
//	POST /v1/compare        risk delta between two versions (the CI gate)
//	POST /v1/delta          apply a changeset to a per-repo session, score the delta
//	POST /v1/rank           function-level risk ranking
//	POST /v1/query          query the -db findings history (404 without -db)
//	POST /v1/models/reload  re-read the model sources, swap atomically
//	GET  /healthz           liveness plus registry summary
//	GET  /metrics           Prometheus text exposition
//
// Usage:
//
//	secmetricd [-addr :8321] [-model m.json ...] [-model-dir dir]
//	           [-train-default] [-workers N] [-queue N]
//	           [-request-timeout d] [-jobs N] [-file-timeout d]
//	           [-cache dir] [-db findings.db] [-addr-file f]
//	           [-drain-timeout d] [-max-body-bytes N] [-pprof addr]
//	           [-sessions N] [-session-ttl d]
//
// With -db, every /v1/score, /v1/compare, and /v1/rank request appends a
// run (tree name, CWE-tagged findings, score where the endpoint computes
// one) to the embedded findings history at that path, and POST /v1/query
// serves the internal/store query language over it.
//
// With -route URL1,URL2,... the process runs as a consistent-hash shard
// router over those secmetricd backends instead of serving analyses
// itself: requests hash by repository (tree name, repo_id, or a query's
// repo filter) so delta sessions and -db history stay shard-local, down
// backends are ejected by active health probes (-health-interval) and
// re-admitted on recovery, and backend responses — 429, 504, 409 included
// — are forwarded verbatim.
//
// With -pprof, a second listener serves net/http/pprof on its own mux —
// profiling never shares a port (or an exposure decision) with the scoring
// API. Request bodies above -max-body-bytes are rejected with 413.
//
// Model sources: every -model file registers under its basename without a
// .json or .bin extension (or an explicit NAME=PATH), and every *.json and
// *.bin file in -model-dir registers the same way; a name two sources claim
// is refused. With -train-default and no sources, a logistic model is
// trained on the built-in corpus at startup. A model whose feature schema
// does not match this build is refused at startup and at reload.
//
// SIGINT/SIGTERM drain gracefully: the listener closes, in-flight requests
// finish (bounded by -drain-timeout), then the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	secmetric "repro"
	"repro/internal/featcache"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/store/findex"
	"repro/pkg/api"
)

func main() {
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("secmetricd: ")
	// Bound before anything else runs, so a signal that arrives while the
	// daemon trains, opens -db or starts serving cancels run's context and
	// drains, instead of ending the process with -db unclosed. Once the
	// first signal lands, a second one ends the process at once.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop)
	if err := run(ctx, os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		log.Fatal(err)
	}
}

// run parses args and serves until ctx is canceled, then drains.
func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("secmetricd", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8321", "listen address (host:port; port 0 picks an ephemeral port)")
		addrFile     = fs.String("addr-file", "", "write the bound address to this file after listening (for ephemeral ports)")
		modelDir     = fs.String("model-dir", "", "directory of *.json and *.bin models, each registered under its basename without the extension")
		trainDefault = fs.Bool("train-default", false, "train a logistic model on the built-in corpus when no model source is given")
		workers      = fs.Int("workers", 0, "max concurrent analyses (0 = all cores)")
		queue        = fs.Int("queue", 64, "max admitted requests waiting for a worker; overflow is rejected with 429")
		reqTimeout   = fs.Duration("request-timeout", 2*time.Minute, "hard per-request deadline; requests may tighten it via timeout_ms")
		jobs         = fs.Int("jobs", 0, "per-request extraction pool width (0 = all cores)")
		fileTimeout  = fs.Duration("file-timeout", 0, "per-file deep-analysis deadline (0 = unbounded)")
		cacheDir     = fs.String("cache", "", "persistent feature-cache directory shared by all requests (empty = in-memory)")
		dbPath       = fs.String("db", "", "findings-history database; records score/compare/rank runs and enables /v1/query (empty = disabled)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain waits for in-flight requests")
		maxBody      = fs.Int64("max-body-bytes", api.DefaultMaxBodyBytes, "largest accepted request body in bytes; oversized bodies are rejected with 413")
		pprofAddr    = fs.String("pprof", "", "serve net/http/pprof on this separate address (empty = disabled)")
		maxSessions  = fs.Int("sessions", server.DefaultMaxSessions, "max live /v1/delta repo sessions; least-recently-used beyond this are evicted")
		sessionTTL   = fs.Duration("session-ttl", server.DefaultSessionTTL, "evict /v1/delta sessions idle longer than this")
		route        = fs.String("route", "", "run as a shard router over this comma-separated backend URL list instead of serving analyses")
		healthIvl    = fs.Duration("health-interval", router.DefaultHealthInterval, "router mode: interval between active backend health probes")
	)
	modelFiles := map[string]string{}
	fs.Func("model", "model file to serve, repeatable; `path` or NAME=PATH (name defaults to the basename without .json or .bin)", func(v string) error {
		name, path, ok := strings.Cut(v, "=")
		if !ok {
			path = v
			name, _ = server.ModelName(v)
		}
		if name == "" || path == "" {
			return fmt.Errorf("bad -model %q", v)
		}
		if _, dup := modelFiles[name]; dup {
			return fmt.Errorf("duplicate model name %q", name)
		}
		modelFiles[name] = path
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *route != "" {
		// Router mode: no models, no cache, no history — just the ring.
		rt, err := router.New(router.Config{
			Backends:       strings.Split(*route, ","),
			HealthInterval: *healthIvl,
			MaxBodyBytes:   *maxBody,
		})
		if err != nil {
			return err
		}
		defer rt.Close()
		log.Printf("routing across %d backend(s): %s", len(rt.Backends()), strings.Join(rt.Backends(), ", "))
		return serveAndDrain(ctx, rt.Handler(), *addr, *addrFile, *drainTimeout)
	}

	cache, err := featcache.Open(*cacheDir)
	if err != nil {
		return err
	}

	var history *findex.Store
	if *dbPath != "" {
		history, err = findex.Open(*dbPath)
		if err != nil {
			return fmt.Errorf("open -db %s: %w", *dbPath, err)
		}
		// Closed after the drain below, so the final checkpoint covers every
		// recorded run.
		defer func() {
			if err := history.Close(); err != nil {
				log.Printf("close -db: %v", err)
			}
		}()
		log.Printf("recording findings history to %s", *dbPath)
	}

	reg := server.NewRegistry(*modelDir, modelFiles)
	switch {
	case len(modelFiles) > 0 || *modelDir != "":
		snap, err := reg.Load()
		if err != nil {
			return err
		}
		log.Printf("serving %d model(s): %s (default %q)",
			len(snap.Models), strings.Join(snap.Names(), ", "), snap.Default)
	case *trainDefault:
		log.Printf("no model source; training the default logistic model on the built-in corpus...")
		c, err := secmetric.DefaultCorpus()
		if err != nil {
			return err
		}
		m, err := secmetric.TrainContext(ctx, c, secmetric.TrainConfig{Kind: secmetric.KindLogistic, Folds: 5, Seed: 17, Jobs: *jobs})
		if err != nil {
			return fmt.Errorf("train the default model: %w", err)
		}
		reg.Register("default", m)
		log.Printf("trained and registered model %q", "default")
	default:
		return errors.New("no model source: pass -model, -model-dir, or -train-default")
	}

	srv := server.New(reg, server.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		RequestTimeout: *reqTimeout,
		AnalyzeJobs:    *jobs,
		FileTimeout:    *fileTimeout,
		Cache:          cache,
		MaxBodyBytes:   *maxBody,
		MaxSessions:    *maxSessions,
		SessionTTL:     *sessionTTL,
		History:        history,
	})

	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		log.Printf("pprof listening on %s", pln.Addr())
		ps := newHTTPServer(pprofMux())
		defer ps.Close()
		go func() {
			if err := ps.Serve(pln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("pprof server: %v", err)
			}
		}()
	}

	return serveAndDrain(ctx, srv.Handler(), *addr, *addrFile, *drainTimeout)
}

// serveAndDrain runs one hardened HTTP server (daemon or router mode)
// until ctx is canceled (SIGINT/SIGTERM in main), then drains: the
// listener closes, in-flight requests finish bounded by drainTimeout, and
// it returns nil.
func serveAndDrain(ctx context.Context, h http.Handler, addr, addrFile string, drainTimeout time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if addrFile != "" {
		// Write-then-rename so a poller never reads a half-written address.
		tmp := addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(bound), 0o644); err != nil {
			return err
		}
		if err := os.Rename(tmp, addrFile); err != nil {
			return err
		}
	}
	log.Printf("listening on %s", bound)

	hs := newHTTPServer(h)
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err // listener failed before any signal
	case <-ctx.Done():
	}
	log.Printf("signal received; draining in-flight requests (up to %v)...", drainTimeout)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Printf("drained cleanly")
	return nil
}

// newHTTPServer wraps a handler in an http.Server with slow-client
// protections: a client that trickles its request headers (slow loris) is
// cut off by ReadHeaderTimeout, and idle keep-alive connections are
// reclaimed by IdleTimeout. Body reads are not bounded here — the
// per-request deadline and -max-body-bytes own that — so a legitimately
// large tree upload on a slow link still goes through.
func newHTTPServer(h http.Handler) *http.Server {
	return hardenedServer(h, 10*time.Second, 2*time.Minute)
}

func hardenedServer(h http.Handler, readHeader, idle time.Duration) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeader,
		IdleTimeout:       idle,
	}
}

// pprofMux serves the net/http/pprof handlers on a private mux, so enabling
// profiling never touches http.DefaultServeMux or the API listener.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
