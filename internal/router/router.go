package router

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/pkg/api"
)

// Config tunes the router.
type Config struct {
	// Backends are the secmetricd base URLs forming the ring; at least one
	// is required.
	Backends []string
	// HealthInterval spaces the active /healthz probes per backend;
	// <= 0 uses 2 seconds.
	HealthInterval time.Duration
	// MaxBodyBytes caps a request body (the router buffers the body to
	// extract the shard key); <= 0 uses api.DefaultMaxBodyBytes, as the
	// daemon does.
	MaxBodyBytes int64
}

// DefaultHealthInterval spaces active backend probes when
// Config.HealthInterval is unset.
const DefaultHealthInterval = 2 * time.Second

// failThreshold is how many consecutive probe failures eject a backend from
// the ring. One probe success re-admits it.
const failThreshold = 2

// backend is one fleet member and its live accounting.
type backend struct {
	addr     string
	healthy  atomic.Bool
	fails    atomic.Int64
	requests atomic.Uint64
	errors   atomic.Uint64
}

// Router is the consistent-hash front door. Construct with New, mount
// Handler, Close when done (stops the health probes).
type Router struct {
	cfg      Config
	backends []*backend
	ring     ring
	// hc carries proxied requests; no client-side timeout, the caller's
	// request context (and the backend's own deadline discipline) bounds
	// the round-trip — a streaming response must be able to run long.
	hc    *http.Client
	probe *http.Client
	start time.Time

	quit     chan struct{}
	wg       sync.WaitGroup
	stopOnce sync.Once
}

// New validates the backend list, refusing an empty or repeated address,
// and starts one health loop per backend.
// Backends start healthy: the fleet booting in any order must not bounce
// early requests off a router that has not probed yet.
func New(cfg Config) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("router: at least one backend is required")
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = DefaultHealthInterval
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = api.DefaultMaxBodyBytes
	}
	addrs := make([]string, len(cfg.Backends))
	seen := make(map[string]int, len(cfg.Backends))
	for i, a := range cfg.Backends {
		addrs[i] = strings.TrimRight(a, "/")
		if addrs[i] == "" {
			return nil, fmt.Errorf("router: backend %d is empty", i)
		}
		// One daemon listed twice would get two health loops and every
		// reload twice, and /metrics would write its series twice.
		if j, dup := seen[addrs[i]]; dup {
			return nil, fmt.Errorf("router: backends %d and %d are both %s", j, i, addrs[i])
		}
		seen[addrs[i]] = i
	}
	rt := &Router{
		cfg:   cfg,
		ring:  buildRing(addrs),
		hc:    &http.Client{},
		probe: &http.Client{Timeout: cfg.HealthInterval},
		start: time.Now(),
		quit:  make(chan struct{}),
	}
	for _, a := range addrs {
		b := &backend{addr: a}
		b.healthy.Store(true)
		rt.backends = append(rt.backends, b)
	}
	for _, b := range rt.backends {
		rt.wg.Add(1)
		go rt.healthLoop(b)
	}
	return rt, nil
}

// Close stops the health probes. In-flight proxied requests finish on
// their own contexts.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.quit) })
	rt.wg.Wait()
}

// healthLoop actively probes one backend. A backend that fails
// failThreshold consecutive probes is ejected (its keys slide to the ring
// successor); a single success re-admits it — recovery should be fast,
// ejection deliberate.
func (rt *Router) healthLoop(b *backend) {
	defer rt.wg.Done()
	t := time.NewTicker(rt.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.quit:
			return
		case <-t.C:
			rt.probeOnce(b)
		}
	}
}

func (rt *Router) probeOnce(b *backend) {
	resp, err := rt.probe.Get(b.addr + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if err != nil || resp.StatusCode != http.StatusOK {
		if b.fails.Add(1) >= failThreshold {
			b.healthy.Store(false)
		}
		return
	}
	b.fails.Store(0)
	b.healthy.Store(true)
}

// Handler mounts the router's routes: its own health and metrics, the
// reload broadcast, and the keyed proxy for every analysis route of the
// wire contract (api.ShardKeys).
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", rt.handleHealth)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	mux.HandleFunc("POST /v1/models/reload", rt.handleReload)
	for path, shardKey := range api.ShardKeys() {
		mux.HandleFunc("POST "+path, func(w http.ResponseWriter, r *http.Request) {
			rt.proxy(w, r, shardKey)
		})
	}
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, api.Error{Code: code, Error: msg})
}

func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	out := api.RouterHealth{Status: "ok"}
	for _, b := range rt.backends {
		out.Backends = append(out.Backends, api.RouterBackend{
			Addr:     b.addr,
			Healthy:  b.healthy.Load(),
			Requests: b.requests.Load(),
			Errors:   b.errors.Load(),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintln(w, "# HELP secmetric_router_backend_up Whether the ring currently routes to this backend.")
	fmt.Fprintln(w, "# TYPE secmetric_router_backend_up gauge")
	for _, b := range rt.backends {
		up := 0
		if b.healthy.Load() {
			up = 1
		}
		fmt.Fprintf(w, "secmetric_router_backend_up{backend=%q} %d\n", b.addr, up)
	}
	fmt.Fprintln(w, "# HELP secmetric_router_backend_requests_total Requests proxied to this backend (whatever status it answered).")
	fmt.Fprintln(w, "# TYPE secmetric_router_backend_requests_total counter")
	for _, b := range rt.backends {
		fmt.Fprintf(w, "secmetric_router_backend_requests_total{backend=%q} %d\n", b.addr, b.requests.Load())
	}
	fmt.Fprintln(w, "# HELP secmetric_router_backend_errors_total Transport-level proxy failures against this backend (failed dials, bodies dead mid-copy).")
	fmt.Fprintln(w, "# TYPE secmetric_router_backend_errors_total counter")
	for _, b := range rt.backends {
		fmt.Fprintf(w, "secmetric_router_backend_errors_total{backend=%q} %d\n", b.addr, b.errors.Load())
	}
	fmt.Fprintln(w, "# HELP secmetric_router_uptime_seconds Seconds since the router started.")
	fmt.Fprintln(w, "# TYPE secmetric_router_uptime_seconds gauge")
	fmt.Fprintf(w, "secmetric_router_uptime_seconds %g\n", time.Since(rt.start).Seconds())
}

// handleReload broadcasts the model reload to every healthy backend: a
// reload must take effect fleet-wide or report that it did not. Any
// backend failure answers 502 naming the backend; the caller retries once
// the fleet is whole.
func (rt *Router) handleReload(w http.ResponseWriter, r *http.Request) {
	var firstBody []byte
	var firstStatus int
	for _, b := range rt.backends {
		if !b.healthy.Load() {
			continue
		}
		b.requests.Add(1)
		req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, b.addr+"/v1/models/reload", nil)
		if err != nil {
			writeErr(w, http.StatusBadGateway, api.CodeInternal, err.Error())
			return
		}
		resp, err := rt.hc.Do(req)
		if err != nil {
			b.errors.Add(1)
			b.healthy.Store(false)
			writeErr(w, http.StatusBadGateway, api.CodeInternal,
				fmt.Sprintf("reload on %s failed: %v", b.addr, err))
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if firstBody == nil {
			firstBody, firstStatus = body, resp.StatusCode
		}
		if resp.StatusCode != http.StatusOK {
			// Forward the failing backend's own envelope; a partial reload
			// is the caller's signal to retry.
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(resp.StatusCode)
			w.Write(body)
			return
		}
	}
	if firstBody == nil {
		writeErr(w, http.StatusServiceUnavailable, api.CodeNoBackend, "no healthy backend to reload")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(firstStatus)
	w.Write(firstBody)
}

// proxy routes one analysis request: buffer the body (bounded), take its
// shard key, walk the ring from the key's home backend, and stream the
// first reachable backend's response back verbatim. Backend application
// errors (429, 504, 409, 4xx) are forwarded, not retried — they are the
// contract. Only transport failures fail over, and a backend that fails a
// proxied request is ejected immediately rather than waiting for the probe
// loop to notice.
//
// The key is the repository identity the request's api type declares
// (api.Keyed), so every request about one repository converges on one
// backend, where its delta session and -db history live. A request that
// names no repository answers 400 rather than guessing a shard.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, shardKey func(body []byte) (string, error)) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeErr(w, http.StatusRequestEntityTooLarge, api.CodeBodyTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", mbe.Limit))
			return
		}
		writeErr(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
		return
	}
	key, err := shardKey(body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
		return
	}

	served := false
	rt.ring.walk(key, func(i int) bool {
		b := rt.backends[i]
		if !b.healthy.Load() {
			return false
		}
		b.requests.Add(1)
		req, rerr := http.NewRequestWithContext(r.Context(), r.Method, b.addr+r.URL.RequestURI(), bytes.NewReader(body))
		if rerr != nil {
			err = rerr
			return true
		}
		req.Header = r.Header.Clone()
		resp, derr := rt.hc.Do(req)
		if derr != nil {
			// Unreachable: eject now and let the walk try the successor.
			// The health loop re-admits it when probes succeed again.
			b.errors.Add(1)
			b.healthy.Store(false)
			return false
		}
		defer resp.Body.Close()
		rt.copyResponse(w, resp, b)
		served = true
		return true
	})
	if served {
		return
	}
	if err != nil {
		writeErr(w, http.StatusBadGateway, api.CodeInternal, err.Error())
		return
	}
	writeErr(w, http.StatusServiceUnavailable, api.CodeNoBackend,
		fmt.Sprintf("no healthy backend for key %q", key))
}

// copyResponse relays status, headers, and body. The body copy flushes
// every chunk so a streaming backend's NDJSON records cross the router
// with the same liveness they left the backend with.
func (rt *Router) copyResponse(w http.ResponseWriter, resp *http.Response, b *backend) {
	h := w.Header()
	for k, vs := range resp.Header {
		for _, v := range vs {
			h.Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	fw := &flushWriter{w: w, rc: http.NewResponseController(w)}
	if _, err := io.Copy(fw, resp.Body); err != nil {
		// Mid-copy death: the client sees a truncated body; the counter
		// sees the backend.
		b.errors.Add(1)
	}
}

type flushWriter struct {
	w  io.Writer
	rc *http.ResponseController
}

func (f *flushWriter) Write(p []byte) (int, error) {
	n, err := f.w.Write(p)
	if err == nil {
		if ferr := f.rc.Flush(); ferr != nil && !errors.Is(ferr, http.ErrNotSupported) {
			return n, ferr
		}
	}
	return n, err
}

// Backends reports the configured backend addresses in ring-build order
// (primarily for logs and tests).
func (rt *Router) Backends() []string {
	out := make([]string, len(rt.backends))
	for i, b := range rt.backends {
		out[i] = b.addr
	}
	sort.Strings(out)
	return out
}
