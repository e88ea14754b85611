// Package server implements secmetricd's HTTP serving layer: the paper's
// §5.3 loop — "the classifier can give the developer an evaluation ... of
// every change" — as a long-lived daemon instead of a batch CLI. One
// process loads trained models at startup, holds a shared content-addressed
// feature cache, and serves scoring, analysis, findings, and comparison
// over JSON-encoded source trees.
//
// The serving path reuses the library machinery end-to-end: each request
// runs through core.ExtractFeaturesDiagnostics (the same engine behind
// secmetric.AnalyzeTreeWithDiagnostics) under a per-request
// context.Context deadline, on a bounded worker pool with an explicit
// queue-depth limit. A request that arrives when the queue is full is
// rejected immediately with 429 — bounded memory under overload — and one
// that outlives its deadline fails with 504 without harming the process.
// Models live in a Registry of atomic snapshots, so POST /v1/models/reload
// swaps the whole model set at once while in-flight requests finish on the
// snapshot they started with.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"math/rand/v2"
	"net/http"
	"path"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	secmetric "repro"
	"repro/internal/core"
	"repro/internal/featcache"
	"repro/internal/findings"
	"repro/internal/lang"
	"repro/internal/metrics"
	"repro/internal/store/findex"
	"repro/internal/trace"
	"repro/pkg/api"
)

// Config tunes the serving pipeline.
type Config struct {
	// Workers bounds how many requests may analyze concurrently; <= 0 uses
	// GOMAXPROCS. Each admitted request holds one slot for its whole
	// analysis.
	Workers int
	// QueueDepth bounds how many admitted requests may wait for a slot on
	// top of the Workers running ones; further requests are rejected with
	// 429. Negative means 0 (no waiting room).
	QueueDepth int
	// RequestTimeout is the hard per-request deadline; <= 0 defaults to
	// 2 minutes. A request's timeout_ms field can tighten it, never extend.
	RequestTimeout time.Duration
	// AnalyzeJobs bounds the per-file extraction pool inside one request;
	// <= 0 uses every core.
	AnalyzeJobs int
	// FileTimeout bounds one file's deep analysis (see
	// secmetric.AnalyzeConfig.FileTimeout).
	FileTimeout time.Duration
	// Cache is the shared process-wide feature cache; nil uses a fresh
	// in-memory cache.
	Cache *featcache.Cache
	// MaxBodyBytes caps a request body's size; a client that streams more
	// is cut off and answered 413 instead of growing the daemon's heap
	// without bound. <= 0 uses api.DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// MaxSessions bounds the per-repo incremental session registry behind
	// /v1/delta; the least-recently-used session is evicted beyond it.
	// <= 0 uses 64.
	MaxSessions int
	// SessionTTL expires sessions idle longer than this; an expired
	// session's next non-seeding changeset answers 409 stale_session.
	// <= 0 uses 1 hour.
	SessionTTL time.Duration
	// History is the findings time-series the daemon records scoring
	// requests into and serves POST /v1/query from; nil disables both
	// (queries answer 404 no_history). The server does not close it.
	History *findex.Store
}

// Session-registry defaults applied when Config leaves them unset.
const (
	DefaultMaxSessions = 64
	DefaultSessionTTL  = time.Hour
)

// streamHeartbeat is the idle interval between keepalive records on the
// NDJSON streaming endpoints.
const streamHeartbeat = 10 * time.Second

// Server is the HTTP daemon. Construct with New, mount Handler.
type Server struct {
	cfg      Config
	reg      *Registry
	cache    *featcache.Cache
	tel      *telemetry
	sem      chan struct{}
	slots    int
	start    time.Time
	sessions *sessionPool

	// heartbeat is the streams' keepalive interval: streamHeartbeat, which
	// tests shrink to observe heartbeats without a slow analysis.
	heartbeat time.Duration

	// logWriteErrOnce gates the single log line behind the response-write
	// error counter.
	logWriteErrOnce sync.Once

	// historyRuns / historyErrors count run recordings into cfg.History.
	// Recording is best-effort: a failed append never fails the scoring
	// request that triggered it, it only moves this counter.
	historyRuns   atomic.Uint64
	historyErrors atomic.Uint64

	// testHookAcquired, when non-nil, runs on the request goroutine right
	// after a worker slot is acquired and before any analysis. Tests use
	// it to hold slots open (backpressure) or outlive deadlines; production
	// code never sets it.
	testHookAcquired func(endpoint string)
}

// New builds a server over a populated registry.
func New(reg *Registry, cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth < 0 {
		cfg.QueueDepth = 0
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 2 * time.Minute
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = api.DefaultMaxBodyBytes
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	if cfg.SessionTTL <= 0 {
		cfg.SessionTTL = DefaultSessionTTL
	}
	cache := cfg.Cache
	if cache == nil {
		cache = featcache.NewMemory()
	}
	return &Server{
		cfg:       cfg,
		reg:       reg,
		cache:     cache,
		tel:       newTelemetry(),
		sem:       make(chan struct{}, cfg.Workers),
		slots:     cfg.Workers,
		start:     time.Now(),
		heartbeat: streamHeartbeat,
		// Delta sessions extract with the same pool width, per-file
		// deadline, and shared cache as the batch endpoints, so the
		// incremental and cold paths produce byte-identical vectors and a
		// file one path analyzed is a cache hit for the other.
		sessions: newSessionPool(cfg.MaxSessions, cfg.SessionTTL, core.ExtractConfig{
			Jobs:        cfg.AnalyzeJobs,
			Cache:       cache,
			FileTimeout: cfg.FileTimeout,
		}),
	}
}

// Handler mounts the daemon's routes: the operational endpoints and every
// analysis endpoint of the endpoints table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealth))
	mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	mux.HandleFunc("POST /v1/models/reload", s.instrument("reload", s.handleReload))
	for _, e := range endpoints {
		e.mount(s, mux)
	}
	return mux
}

// statusRecorder captures the response code for the request counters.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer so handlers behind instrument can
// stream: embedding http.ResponseWriter alone would satisfy the interface
// set of the embedded value minus anything the wrapper shadows, but
// type-asserting the wrapper to http.Flusher must keep working — the
// streaming endpoints depend on a mid-handler flush reaching the client
// before the handler returns.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the underlying writer to http.ResponseController, the
// forward-compatible way to reach optional interfaces through wrappers.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// instrument wraps a handler with latency and status accounting.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		t0 := time.Now()
		h(rec, r)
		s.tel.observe(endpoint, rec.code, time.Since(t0).Seconds())
	}
}

// writeJSON writes one JSON response body. A failed encode after the
// header is out (almost always a client that hung up mid-body) cannot be
// reported to that client, but it must not vanish either: the daemon
// counts it (secmetricd_response_write_errors_total) and logs the first
// occurrence, so a truncated-body epidemic is visible operationally
// instead of leaving both sides with no record.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.countWriteError(err)
	}
}

func (s *Server) writeErr(w http.ResponseWriter, status int, code, msg string) {
	s.writeJSON(w, status, api.Error{Code: code, Error: msg})
}

// countWriteError accounts one failed response write. Logging is
// once-per-process: the counter carries the rate, the single log line
// carries a concrete example without flooding under a disconnect storm.
func (s *Server) countWriteError(err error) {
	s.tel.writeErrors.Add(1)
	s.logWriteErrOnce.Do(func() {
		log.Printf("response write failed (now counted in secmetricd_response_write_errors_total): %v", err)
	})
}

// requestTimeout resolves the effective deadline: the server maximum,
// tightened by a positive timeout_ms.
func (s *Server) requestTimeout(timeoutMS int64) time.Duration {
	d := s.cfg.RequestTimeout
	if timeoutMS > 0 {
		if req := time.Duration(timeoutMS) * time.Millisecond; req < d {
			d = req
		}
	}
	return d
}

// reqError is a request failure with its own HTTP status and stable code.
type reqError struct {
	status int
	code   string
	msg    string
}

func (e *reqError) Error() string { return e.msg }

func badRequest(msg string) error {
	return &reqError{http.StatusBadRequest, api.CodeBadRequest, msg}
}

// errorCode classifies a failure: a *reqError carries its own status and
// code, an expired or canceled context is a 504 deadline, anything else is
// a 500.
func errorCode(err error) (int, string) {
	var re *reqError
	switch {
	case errors.As(err, &re):
		return re.status, re.code
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout, api.CodeDeadline
	default:
		return http.StatusInternalServerError, api.CodeInternal
	}
}

// writeError answers err with the status and code errorCode assigns it.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	status, code := errorCode(err)
	s.writeErr(w, status, code, err.Error())
}

// withSlot runs fn under the admission discipline: queue-depth check (429
// on overflow), bounded worker pool, per-request deadline (504 on expiry,
// whether it hits while waiting for a slot or mid-analysis). fn gets the
// deadline-bearing context; an error it returns is answered by writeError.
//
// Every admitted request runs under a root span whose context fn receives,
// so the library's extraction spans attach to it; when the request
// finishes, the per-phase busy totals feed the phase_seconds_total metric.
// Rejected (429) requests pay nothing: the tracer is created only after
// admission.
func (s *Server) withSlot(w http.ResponseWriter, r *http.Request, endpoint string, timeoutMS int64, fn func(ctx context.Context) error) {
	q := s.tel.queued.Add(1)
	defer s.tel.queued.Add(-1)
	if int(q) > s.slots+s.cfg.QueueDepth {
		s.tel.queueFull.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		s.writeErr(w, http.StatusTooManyRequests, api.CodeQueueFull,
			fmt.Sprintf("queue full: %d running, %d waiting", s.slots, s.cfg.QueueDepth))
		return
	}
	tr := trace.New("request")
	tr.Root().SetLabel(endpoint)
	defer func() {
		tr.Finish()
		s.tel.observePhases(tr.PhaseTotals())
	}()
	ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout(timeoutMS))
	defer cancel()
	ws := tr.Root().Child("wait")
	select {
	case s.sem <- struct{}{}:
		ws.End()
	case <-ctx.Done():
		ws.End()
		s.writeErr(w, http.StatusGatewayTimeout, api.CodeDeadline,
			"deadline exceeded while waiting for a worker slot")
		return
	}
	s.tel.inFlight.Add(1)
	defer func() {
		s.tel.inFlight.Add(-1)
		<-s.sem
	}()
	if s.testHookAcquired != nil {
		s.testHookAcquired(endpoint)
	}
	if ctx.Err() != nil {
		s.writeErr(w, http.StatusGatewayTimeout, api.CodeDeadline, "deadline exceeded before analysis started")
		return
	}
	t0 := time.Now()
	if err := fn(trace.ContextWithSpan(ctx, tr.Root())); err != nil {
		s.writeError(w, err)
		return
	}
	// Successful service times feed the EWMA behind Retry-After: the hint
	// tracks how long real work has been taking lately, not the config.
	s.tel.observeService(time.Since(t0).Seconds())
}

// retryAfterSeconds derives the 429 Retry-After hint from live load: the
// time the backlog ahead of a retry needs to drain at the recently
// observed per-request service time across the worker pool, bounded to
// [1, 30] seconds and jittered upward by up to ~25% so a burst rejected
// together does not retry together (the router multiplies 429 fan-out,
// and a synchronized herd would re-trip the queue it is waiting on).
func (s *Server) retryAfterSeconds() int {
	backlog := float64(s.tel.queued.Load())
	if backlog < 0 {
		backlog = 0
	}
	est := backlog * s.tel.recentServiceSeconds() / float64(s.slots)
	secs := int(math.Ceil(est))
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	secs += rand.IntN(max(1, secs/4) + 1)
	if secs > 30 {
		secs = 30
	}
	return secs
}

// analyze runs the full extraction pipeline for one request against the
// shared feature cache. fileDone, when non-nil, sees each file's
// diagnostic as it completes.
func (s *Server) analyze(ctx context.Context, tree *metrics.Tree, fileDone func(i int, d core.FileDiagnostic)) (secmetric.FeatureVector, *secmetric.AnalysisDiagnostics, error) {
	return core.ExtractFeaturesDiagnostics(ctx, tree, core.ExtractConfig{
		Jobs:        s.cfg.AnalyzeJobs,
		Cache:       s.cache,
		FileTimeout: s.cfg.FileTimeout,
		FileDone:    fileDone,
	})
}

// collect runs the findings collector for one request with the extraction
// pipeline's pool width, shared feature cache and per-file deadline, so a
// file's findings are analyzed once per content and then read from the
// cache by every consumer.
func (s *Server) collect(ctx context.Context, tree *metrics.Tree, minSev findings.Severity, fileDone func(i int, d core.FileDiagnostic, kept []findings.Finding)) (*findings.Report, error) {
	return core.CollectFindings(ctx, tree, core.FindingsConfig{
		Jobs:        s.cfg.AnalyzeJobs,
		Cache:       s.cache,
		FileTimeout: s.cfg.FileTimeout,
		MinSeverity: minSev,
		FileDone:    fileDone,
	})
}

// toTree converts a wire tree to the analyzer's representation, applying
// the same discipline as the CLI's directory loader: admitPath's rule per
// file, then files sorted by path. An empty result (nothing analyzable) or
// a duplicate path is an error. The tree is named by its subject, the name
// the shard router keys it under.
func toTree(t api.Tree) (*metrics.Tree, error) {
	name := t.Subject()
	files, err := admitFiles(t.Files, errTreeEmptyPath)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no analyzable source files in tree %q", name)
	}
	sort.Slice(files, func(i, j int) bool { return files[i].Path < files[j].Path })
	for i := 1; i < len(files); i++ {
		if files[i].Path == files[i-1].Path {
			return nil, fmt.Errorf("duplicate file path %q", files[i].Path)
		}
	}
	return &metrics.Tree{Name: name, Files: files}, nil
}

// The empty-path refusals of a tree and a changeset, each kept verbatim.
var (
	errTreeEmptyPath      = errors.New("file with empty path")
	errChangesetEmptyPath = errors.New("changeset contains an empty file path")
)

// admitPath is the one per-path admission rule of the wire: an empty path
// is refused with errEmpty, a dot-file or a path without a recognized
// source extension is skipped (ok false), and the language comes from the
// extension.
func admitPath(p string, errEmpty error) (l lang.Language, ok bool, err error) {
	if p == "" {
		return lang.Unknown, false, errEmpty
	}
	if strings.HasPrefix(path.Base(p), ".") {
		return lang.Unknown, false, nil
	}
	l = lang.FromPath(p)
	return l, l != lang.Unknown, nil
}

// admitFiles applies admitPath to each wire file, keeping the admitted
// ones in input order.
func admitFiles(files []api.File, errEmpty error) ([]metrics.File, error) {
	var out []metrics.File
	for _, f := range files {
		l, ok, err := admitPath(f.Path, errEmpty)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, metrics.File{Path: f.Path, Language: l, Content: f.Content})
		}
	}
	return out, nil
}

// decode reads the JSON request body under the configured size cap. A body
// that exceeds the cap answers 413 with the stable body_too_large code —
// the decoder surfaces *http.MaxBytesError the moment the reader passes
// the limit, so a hostile client can stream gigabytes and the daemon still
// buffers at most MaxBodyBytes of it.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return &reqError{http.StatusRequestEntityTooLarge, api.CodeBodyTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", mbe.Limit)}
		}
		return badRequest("decode request: " + err.Error())
	}
	return nil
}

// record persists one scoring request into the findings history, keyed by
// the tree's name. It runs synchronously inside the request's worker slot
// (the store has a single writer; holding the slot keeps history pressure
// under the same admission discipline as the analysis itself), but its
// outcome only moves counters — a full disk must not turn a perfectly good
// score into a 500. The findings come from the collector under the
// request's context. Extraction writes only enrichment records, so a file
// new to the feature cache misses the findings record and the collector
// analyzes it again (one ir.Parse, then the findings producers); only a
// file an earlier collection analyzed is a findings-record hit. A request
// canceled or past its deadline, or a file whose findings analysis
// panicked or timed out, appends nothing and counts as a recording error.
func (s *Server) record(ctx context.Context, source string, tree *metrics.Tree, score float64, hasScore bool) {
	if s.cfg.History == nil {
		return
	}
	rs := trace.SpanFromContext(ctx).Child("record")
	defer rs.End()
	rep, err := s.collect(ctx, tree, findings.SevInfo, nil)
	if err != nil {
		s.historyErrors.Add(1)
		return
	}
	run := findex.NewRun(tree.Name, source, rep)
	if hasScore {
		run = run.WithScore(score)
	}
	if _, err := s.cfg.History.Append(run); err != nil {
		s.historyErrors.Add(1)
		return
	}
	s.historyRuns.Add(1)
}

// toChangeset converts a wire changeset with admitPath, the rule toTree
// applies to whole trees: dot-files and unrecognized extensions are
// silently dropped (from Removed too — such paths were never admitted into
// a session, so removing one must not read as stale), empty paths are an
// error, languages come from extensions. Uniqueness across the three lists
// is the session's own validation.
func toChangeset(cs api.Changeset) (core.Changeset, error) {
	var out core.Changeset
	var err error
	if out.Added, err = admitFiles(cs.Added, errChangesetEmptyPath); err != nil {
		return core.Changeset{}, err
	}
	if out.Modified, err = admitFiles(cs.Modified, errChangesetEmptyPath); err != nil {
		return core.Changeset{}, err
	}
	for _, p := range cs.Removed {
		_, ok, err := admitPath(p, errChangesetEmptyPath)
		if err != nil {
			return core.Changeset{}, err
		}
		if ok {
			out.Removed = append(out.Removed, p)
		}
	}
	if out.Empty() {
		return core.Changeset{}, errors.New("changeset carries no analyzable files")
	}
	return out, nil
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	snap, err := s.reg.Load()
	if err != nil {
		// The previous snapshot keeps serving; the caller learns exactly
		// which model file was refused and why.
		s.writeErr(w, http.StatusInternalServerError, api.CodeReloadFailed, err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, api.ReloadResponse{Models: snap.Names(), DefaultModel: snap.Default})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	snap := s.reg.Snapshot()
	s.writeJSON(w, http.StatusOK, api.Health{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		Models:        snap.Names(),
		DefaultModel:  snap.Default,
		InFlight:      s.tel.inFlight.Load(),
		Queued:        s.tel.queued.Load(),
		Reloads:       s.reg.Reloads(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.tel.write(w)
	hits, misses := s.cache.Stats()
	fmt.Fprintln(w, "# HELP secmetricd_featcache_hits_total Shared feature-cache hits, enrichment and findings records alike.")
	fmt.Fprintln(w, "# TYPE secmetricd_featcache_hits_total counter")
	fmt.Fprintf(w, "secmetricd_featcache_hits_total %d\n", hits)
	fmt.Fprintln(w, "# HELP secmetricd_featcache_misses_total Shared feature-cache misses, enrichment and findings records alike.")
	fmt.Fprintln(w, "# TYPE secmetricd_featcache_misses_total counter")
	fmt.Fprintf(w, "secmetricd_featcache_misses_total %d\n", misses)
	fmt.Fprintln(w, "# HELP secmetricd_featcache_corrupt_total Disk cache entries that failed validation on read (counted, then treated as misses).")
	fmt.Fprintln(w, "# TYPE secmetricd_featcache_corrupt_total counter")
	fmt.Fprintf(w, "secmetricd_featcache_corrupt_total %d\n", s.cache.CorruptReads())
	memEntries, memBytes := s.cache.MemStats()
	fmt.Fprintln(w, "# HELP secmetricd_featcache_mem_entries Records held in the shared feature cache's memory tier, enrichment and findings alike.")
	fmt.Fprintln(w, "# TYPE secmetricd_featcache_mem_entries gauge")
	fmt.Fprintf(w, "secmetricd_featcache_mem_entries %d\n", memEntries)
	fmt.Fprintln(w, "# HELP secmetricd_featcache_mem_bytes Encoded (JSON) bytes of the records in the feature cache's memory tier, the size its budget bounds.")
	fmt.Fprintln(w, "# TYPE secmetricd_featcache_mem_bytes gauge")
	fmt.Fprintf(w, "secmetricd_featcache_mem_bytes %d\n", memBytes)
	fmt.Fprintln(w, "# HELP secmetricd_models_loaded Models in the current registry snapshot.")
	fmt.Fprintln(w, "# TYPE secmetricd_models_loaded gauge")
	fmt.Fprintf(w, "secmetricd_models_loaded %d\n", len(s.reg.Snapshot().Models))
	fmt.Fprintln(w, "# HELP secmetricd_model_reloads_total Successful registry loads since start.")
	fmt.Fprintln(w, "# TYPE secmetricd_model_reloads_total counter")
	fmt.Fprintf(w, "secmetricd_model_reloads_total %d\n", s.reg.Reloads())
	active, evicted := s.sessions.stats()
	fmt.Fprintln(w, "# HELP secmetricd_sessions_active Live incremental sessions in the delta registry.")
	fmt.Fprintln(w, "# TYPE secmetricd_sessions_active gauge")
	fmt.Fprintf(w, "secmetricd_sessions_active %d\n", active)
	fmt.Fprintln(w, "# HELP secmetricd_session_evictions_total Sessions dropped by LRU capacity or idle TTL.")
	fmt.Fprintln(w, "# TYPE secmetricd_session_evictions_total counter")
	fmt.Fprintf(w, "secmetricd_session_evictions_total %d\n", evicted)
	if s.cfg.History != nil {
		fmt.Fprintln(w, "# HELP secmetricd_history_runs_total Analysis runs recorded into the -db findings history.")
		fmt.Fprintln(w, "# TYPE secmetricd_history_runs_total counter")
		fmt.Fprintf(w, "secmetricd_history_runs_total %d\n", s.historyRuns.Load())
		fmt.Fprintln(w, "# HELP secmetricd_history_errors_total Failed history appends (the scoring request itself still succeeded).")
		fmt.Fprintln(w, "# TYPE secmetricd_history_errors_total counter")
		fmt.Fprintf(w, "secmetricd_history_errors_total %d\n", s.historyErrors.Load())
		st := s.cfg.History.DB().Stats()
		fmt.Fprintln(w, "# HELP secmetricd_store_pages Page-file size of the history store, in pages.")
		fmt.Fprintln(w, "# TYPE secmetricd_store_pages gauge")
		fmt.Fprintf(w, "secmetricd_store_pages %d\n", st.PageCount)
		fmt.Fprintln(w, "# HELP secmetricd_store_free_pages Immediately reusable pages in the history store's freelist.")
		fmt.Fprintln(w, "# TYPE secmetricd_store_free_pages gauge")
		fmt.Fprintf(w, "secmetricd_store_free_pages %d\n", st.FreePages)
		fmt.Fprintln(w, "# HELP secmetricd_store_wal_bytes Current write-ahead-log length of the history store.")
		fmt.Fprintln(w, "# TYPE secmetricd_store_wal_bytes gauge")
		fmt.Fprintf(w, "secmetricd_store_wal_bytes %d\n", st.WALBytes)
		fmt.Fprintln(w, "# HELP secmetricd_store_cached_pages Pages resident in the history store's page cache (B+tree nodes, plus row pages not yet checkpointed).")
		fmt.Fprintln(w, "# TYPE secmetricd_store_cached_pages gauge")
		fmt.Fprintf(w, "secmetricd_store_cached_pages %d\n", st.CachedPages)
		fmt.Fprintln(w, "# HELP secmetricd_store_commits_total Committed history-store transactions since open.")
		fmt.Fprintln(w, "# TYPE secmetricd_store_commits_total counter")
		fmt.Fprintf(w, "secmetricd_store_commits_total %d\n", st.Commits)
		fmt.Fprintln(w, "# HELP secmetricd_store_checkpoints_total History-store WAL checkpoints since open.")
		fmt.Fprintln(w, "# TYPE secmetricd_store_checkpoints_total counter")
		fmt.Fprintf(w, "secmetricd_store_checkpoints_total %d\n", st.Checkpoints)
	}
	fmt.Fprintln(w, "# HELP secmetricd_uptime_seconds Seconds since the daemon started.")
	fmt.Fprintln(w, "# TYPE secmetricd_uptime_seconds gauge")
	fmt.Fprintf(w, "secmetricd_uptime_seconds %g\n", time.Since(s.start).Seconds())
}
