package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/trace"
)

// sample is one completed operation of the closed loop.
type sample struct {
	kind   string
	traced bool
	rtt    time.Duration
	phases *trace.Summary
	err    error
}

// window runs every client in a closed loop (each sends its next request
// when the previous answer is in) until d has passed, and returns the
// samples with the wall time from start until the last client finished.
// With alternate set, every other request of each client asks for a trace.
func (t *target) window(ctx context.Context, d time.Duration, alternate bool) ([]sample, time.Duration) {
	per := make([][]sample, clients)
	start := time.Now()
	deadline := start.Add(d)
	_ = parallel(clients, func(c int) error {
		for k := 0; time.Now().Before(deadline); k++ {
			per[c] = append(per[c], t.do(ctx, c, alternate && k%2 == 0))
		}
		return nil
	})
	elapsed := time.Since(start)
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	return all, elapsed
}

// latencies returns round trips in milliseconds; a failed operation counts
// as an infinite one, since it misses any latency limit.
func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.rtt) / 1e6
		if s.err != nil {
			out[i] = math.Inf(1)
		}
	}
	return out
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run: the line the benchmark ends with, plus what
// the report file records about it.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Problems explains an incorrect run: failed checks and broken
	// measurement preconditions.
	Problems []string `json:"problems,omitempty"`
}

func (r *result) set(name string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
}

func (r *result) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// count folds samples into attempted/failed, recording the first failure.
func (r *result) count(ss []sample) {
	for _, s := range ss {
		r.Attempted++
		if s.err != nil {
			if r.Failed == 0 {
				r.problem("%s failed: %v", s.kind, s.err)
			}
			r.Failed++
		}
	}
}

// recheck runs the checks deferred past the window; each failure fails
// one already-counted operation.
func (r *result) recheck(t *target) {
	for _, check := range t.recheck {
		if err := check(); err != nil {
			if r.Failed == 0 {
				r.problem("re-check failed: %v", err)
			}
			r.Failed++
		}
	}
}

// setup runs the workload's timed set-up: boot, prime, fixed warm-up.
func setup(ctx context.Context, w *workload, fx *fixtures) (*target, time.Duration, error) {
	runtime.GC() // leave the previous set-up's garbage out of this one's time
	start := time.Now()
	t, err := w.setup(ctx, w, fx)
	if err != nil {
		return nil, 0, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	if err := t.warmup(ctx, fx.sc.warmupOps); err != nil {
		t.close()
		return nil, 0, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	took := time.Since(start)
	t.recheck = nil // the re-checks count against window operations only
	return t, took, nil
}

// runEndToEnd measures the end-to-end metrics with tracing off. Set-up
// runs fx.sc.setups times and setup_s is the median; the last deployment
// serves the window.
func runEndToEnd(ctx context.Context, w *workload, fx *fixtures, d time.Duration) (*result, error) {
	var t *target
	var setups []float64
	for k := 0; k < fx.sc.setups; k++ {
		if t != nil {
			t.close()
		}
		var took time.Duration
		var err error
		if t, took, err = setup(ctx, w, fx); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer t.close()
	ss, elapsed := t.window(ctx, d, false)
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)

	r := &result{Workload: w.name, Seed: fx.seed, Seconds: d.Seconds(), Metrics: map[string]metric{}}
	r.count(ss)
	r.recheck(t)
	lat := latencies(ss)
	p95 := quantile(lat, 0.95)
	beyond := 0
	for _, l := range lat {
		if l > p95 {
			beyond++
		}
	}
	if beyond < 10 {
		r.problem("only %d of %d samples lie beyond p95; the window is too short for the tail metric", beyond, len(lat))
	}
	r.set("throughput_rps", float64(r.Attempted-r.Failed)/elapsed.Seconds())
	r.set("latency_p50_ms", quantile(lat, 0.5))
	r.set("latency_p95_ms", p95)
	r.set("setup_s", median(setups))
	r.set("live_heap_mb", float64(ms.HeapAlloc)/1e6)
	r.Correct = r.Failed == 0 && len(r.Problems) == 0
	return r, nil
}

// runPerLayer is the traced pass. Every other request asks for a trace,
// so the trace overhead compares requests sent under the same conditions;
// counters are /metrics deltas over the window. The kernel battery runs
// after the deployment is gone.
func runPerLayer(ctx context.Context, w *workload, fx *fixtures, d time.Duration) (*result, error) {
	t, _, err := setup(ctx, w, fx)
	if err != nil {
		return nil, err
	}
	r := &result{Workload: w.name, Seed: fx.seed, Seconds: d.Seconds(), Trace: true, Metrics: map[string]metric{}}
	before, err := t.scrapeAll(ctx)
	if err != nil {
		t.close()
		return nil, err
	}
	dials := t.dials.Load()
	ss, _ := t.window(ctx, d, true)
	r.set("client.dials", float64(t.dials.Load()-dials))
	after, err := t.scrapeAll(ctx)
	if err != nil {
		t.close()
		return nil, err
	}
	r.count(ss)
	r.recheck(t)
	t.close()
	var plain, traced []sample
	for _, s := range ss {
		if s.traced {
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
	}

	if err := r.setLayers(traced); err != nil {
		r.problem("%v", err)
	}
	r.set("trace.overhead_ratio", quantile(latencies(traced), 0.5)/quantile(latencies(plain), 0.5)-1)
	r.setCounters(before, after)
	ks, err := measureKernels(fx)
	if err != nil {
		return nil, err
	}
	for _, k := range ks {
		r.set("kernel."+k.name+".ns_per_op", median(k.ns))
		r.set("kernel."+k.name+".ns_per_op_iqr", iqr(k.ns))
		r.set("kernel."+k.name+".allocs_per_op", median(k.allocs))
	}
	r.Correct = r.Failed == 0 && len(r.Problems) == 0
	return r, nil
}

// setCounters reports the daemons' and router's /metrics deltas.
func (r *result) setCounters(before, after counters) {
	delta := func(prefix string) float64 { return after.sum(prefix) - before.sum(prefix) }
	hits := delta("secmetricd_featcache_hits_total")
	misses := delta("secmetricd_featcache_misses_total")
	r.set("featcache.hits", hits)
	r.set("featcache.misses", misses)
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	r.set("featcache.hit_ratio", ratio)
	r.set("server.rejected", delta("secmetricd_rejected_total"))
	r.set("server.coalesced_files", delta(`secmetricd_coalesced_total{kind="file"}`))
	r.set("server.coalesced_requests", delta(`secmetricd_coalesced_total{kind="request"`))
	r.set("store.commits", delta("secmetricd_store_commits_total"))
	r.set("store.wal_bytes", after.sum("secmetricd_store_wal_bytes"))
	r.set("router.backend_errors", delta("secmetric_router_backend_errors_total"))
}

// sortedNames returns the metric names in output order.
func (r *result) sortedNames() []string {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
