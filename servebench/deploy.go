package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/store/findex"
	"repro/pkg/client"
)

// listener is one in-process HTTP server on a loopback port.
type listener struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func serve(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // returns http.ErrServerClosed after stop
	}()
	return l, nil
}

// stop closes the listener and every connection, then waits for Serve to
// return.
func (l *listener) stop() {
	l.srv.Close()
	<-l.done
}

// daemon is one secmetricd serving stack: the server.Handler of a server
// whose model was decoded from the binary blob, as the daemon loads it.
type daemon struct {
	*listener
	history *findex.Store
	dir     string
}

// startDaemon boots a daemon. With historyDir set it records runs into a
// findings history there (no fsync: the benchmark measures engine CPU, not
// the disk of whatever machine runs it).
func startDaemon(blob []byte, cfg server.Config, historyDir string) (*daemon, error) {
	m, err := core.LoadModel(bytes.NewReader(blob))
	if err != nil {
		return nil, fmt.Errorf("load model: %w", err)
	}
	reg := server.NewRegistry("", nil)
	reg.Register("default", m)
	d := &daemon{dir: historyDir}
	if historyDir != "" {
		db, err := store.Open(filepath.Join(historyDir, "history.db"), store.Options{NoSync: true})
		if err != nil {
			return nil, fmt.Errorf("open history: %w", err)
		}
		d.history = findex.OpenDB(db)
		cfg.History = d.history
	}
	if d.listener, err = serve(server.New(reg, cfg).Handler()); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *daemon) close() {
	if d.listener != nil {
		d.stop()
	}
	if d.history != nil {
		d.history.Close()
	}
	if d.dir != "" {
		os.RemoveAll(d.dir)
	}
}

// soloConfig is the single daemon of the solo workloads: two workers (one
// per client), a queue deep enough that a closed loop is never refused, and
// one extraction worker per request so phase totals add up to wall time.
var soloConfig = server.Config{Workers: 2, QueueDepth: 64, AnalyzeJobs: 1}

// shardConfig is one fleet shard: a single worker, so the two clients
// queue on a shard whenever both address it.
var shardConfig = server.Config{Workers: 1, QueueDepth: 64, AnalyzeJobs: 1}

// deployment is what one workload runs against: the front door the clients
// call, the daemons whose /metrics feed the per-layer counters, and the
// router between them, if any.
type deployment struct {
	front   string
	daemons []*daemon
	router  *router.Router
	rtl     *listener
}

func (dp *deployment) close() {
	if dp.rtl != nil {
		dp.rtl.stop()
	}
	if dp.router != nil {
		dp.router.Close()
	}
	for _, d := range dp.daemons {
		d.close()
	}
}

func soloDeployment(fx *fixtures) (*deployment, error) {
	d, err := startDaemon(fx.blob, soloConfig, "")
	if err != nil {
		return nil, err
	}
	return &deployment{front: d.url, daemons: []*daemon{d}}, nil
}

// fleetDeployment boots two shards with findings histories and the
// consistent-hash router in front of them.
func fleetDeployment(fx *fixtures) (*deployment, error) {
	dp := &deployment{}
	var urls []string
	for i := 0; i < 2; i++ {
		dir, err := os.MkdirTemp("", "servebench-shard")
		if err != nil {
			dp.close()
			return nil, err
		}
		d, err := startDaemon(fx.blob, shardConfig, dir)
		if err != nil {
			os.RemoveAll(dir)
			dp.close()
			return nil, err
		}
		dp.daemons = append(dp.daemons, d)
		urls = append(urls, d.url)
	}
	rt, err := router.New(router.Config{Backends: urls})
	if err != nil {
		dp.close()
		return nil, err
	}
	dp.router = rt
	if dp.rtl, err = serve(rt.Handler()); err != nil {
		dp.close()
		return nil, err
	}
	dp.front = dp.rtl.url
	return dp, nil
}

// newClient returns the load's HTTP client: at most one keep-alive
// connection per closed-loop caller to any host. dials counts the
// connections it opens.
func newClient(base string, dials *atomic.Int64) *client.Client {
	c := client.New(base)
	var d net.Dialer
	c.HTTP = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
	}}
	return c
}

// counters is one scrape of a Prometheus text exposition, keyed by the
// series as written (name plus label set).
type counters map[string]float64

func scrape(ctx context.Context, url string) (counters, error) {
	text, err := client.New(url).RawMetrics(ctx)
	if err != nil {
		return nil, err
	}
	out := counters{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line %q: no value", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// sum adds every series whose key starts with prefix, such as all label
// sets of one metric.
func (c counters) sum(prefix string) float64 {
	t := 0.0
	for k, v := range c {
		if strings.HasPrefix(k, prefix) {
			t += v
		}
	}
	return t
}

// scrapeAll scrapes every daemon of the deployment and the router, if any,
// into one set of counters; a series the shards share is their sum.
func (dp *deployment) scrapeAll(ctx context.Context) (counters, error) {
	urls := []string{}
	for _, d := range dp.daemons {
		urls = append(urls, d.url)
	}
	if dp.rtl != nil {
		urls = append(urls, dp.rtl.url)
	}
	out := counters{}
	for _, u := range urls {
		c, err := scrape(ctx, u)
		if err != nil {
			return nil, err
		}
		for k, v := range c {
			out[k] += v
		}
	}
	return out, nil
}

var errNoOwner = errors.New("no shard took the probe")

// owner reports which shard the router sends repo's requests to, read from
// the router's per-backend request counters around one probe query.
func (dp *deployment) owner(ctx context.Context, cl *client.Client, repo string) (int, error) {
	before, err := scrape(ctx, dp.rtl.url)
	if err != nil {
		return 0, err
	}
	if _, err := cl.Query(ctx, fleetQuery(repo)); err != nil {
		return 0, fmt.Errorf("probe %s: %w", repo, err)
	}
	after, err := scrape(ctx, dp.rtl.url)
	if err != nil {
		return 0, err
	}
	for i, d := range dp.daemons {
		key := fmt.Sprintf("secmetric_router_backend_requests_total{backend=%q}", d.url)
		if after[key] > before[key] {
			return i, nil
		}
	}
	return 0, errNoOwner
}

// parallel runs fn for each client index and returns the first error.
func parallel(n int, fn func(c int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = fn(c)
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}
