package server

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/trace"
)

// latencyBuckets are the fixed histogram bounds (seconds) of the request
// latency exposition, chosen to straddle the observed range: sub-ms cache
// hits through multi-second cold deep analyses.
var latencyBuckets = []float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// endpointStats accumulates one endpoint's counters: per-status-code
// request counts and a latency histogram.
type endpointStats struct {
	codes   map[int]uint64
	buckets []uint64 // len(latencyBuckets)+1; last is +Inf
	sum     float64
	count   uint64
}

// phaseStats accumulates one pipeline phase's totals across requests.
type phaseStats struct {
	seconds float64
	spans   uint64
}

// telemetry is the daemon's metrics surface. The request counters and
// histograms are mutex-guarded (exposition is low-rate and observation is
// one map update per request); the admission-path gauges are atomics so
// rejected requests never contend on the lock.
type telemetry struct {
	mu        sync.Mutex
	endpoints map[string]*endpointStats
	phases    map[string]*phaseStats

	inFlight  atomic.Int64
	queued    atomic.Int64
	queueFull atomic.Uint64
	// writeErrors counts response bodies that failed mid-write (almost
	// always a client that hung up after the header went out).
	writeErrors atomic.Uint64
	// serviceEWMA holds math.Float64bits of the exponentially weighted
	// moving average of successful request service seconds; it feeds the
	// Retry-After derivation. Zero means "no observation yet".
	serviceEWMA atomic.Uint64
}

func newTelemetry() *telemetry {
	return &telemetry{
		endpoints: map[string]*endpointStats{},
		phases:    map[string]*phaseStats{},
	}
}

// observeService folds one successful request's service time into the
// EWMA behind Retry-After. The 0.8/0.2 split keeps the estimate stable
// under jitter while still tracking a real shift within a few requests.
func (t *telemetry) observeService(seconds float64) {
	for {
		old := t.serviceEWMA.Load()
		cur := math.Float64frombits(old)
		next := seconds
		if old != 0 {
			next = 0.8*cur + 0.2*seconds
		}
		if t.serviceEWMA.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// recentServiceSeconds reports the EWMA of successful service times, zero
// before any request completed.
func (t *telemetry) recentServiceSeconds() float64 {
	return math.Float64frombits(t.serviceEWMA.Load())
}

// observePhases folds one finished request's per-phase busy totals into the
// daemon-lifetime counters. Phase names come from the trace layer's bounded
// taxonomy, so the label cardinality stays fixed no matter what trees
// clients send.
func (t *telemetry) observePhases(totals []trace.PhaseTotal) {
	if len(totals) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, pt := range totals {
		ps := t.phases[pt.Phase]
		if ps == nil {
			ps = &phaseStats{}
			t.phases[pt.Phase] = ps
		}
		ps.seconds += pt.Seconds
		ps.spans += uint64(pt.Count)
	}
}

// observe records one finished request.
func (t *telemetry) observe(endpoint string, code int, seconds float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	es := t.endpoints[endpoint]
	if es == nil {
		es = &endpointStats{codes: map[int]uint64{}, buckets: make([]uint64, len(latencyBuckets)+1)}
		t.endpoints[endpoint] = es
	}
	es.codes[code]++
	es.sum += seconds
	es.count++
	i := 0
	for ; i < len(latencyBuckets); i++ {
		if seconds <= latencyBuckets[i] {
			break
		}
	}
	es.buckets[i]++
}

// write renders the Prometheus text exposition format, deterministically
// ordered so scrapes (and tests) are stable.
func (t *telemetry) write(w io.Writer) {
	t.mu.Lock()
	defer t.mu.Unlock()

	names := make([]string, 0, len(t.endpoints))
	for n := range t.endpoints {
		names = append(names, n)
	}
	sort.Strings(names)

	fmt.Fprintln(w, "# HELP secmetricd_requests_total Requests served, by endpoint and status code.")
	fmt.Fprintln(w, "# TYPE secmetricd_requests_total counter")
	for _, n := range names {
		es := t.endpoints[n]
		codes := make([]int, 0, len(es.codes))
		for c := range es.codes {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		for _, c := range codes {
			fmt.Fprintf(w, "secmetricd_requests_total{endpoint=%q,code=\"%d\"} %d\n", n, c, es.codes[c])
		}
	}

	fmt.Fprintln(w, "# HELP secmetricd_request_duration_seconds Request latency, by endpoint.")
	fmt.Fprintln(w, "# TYPE secmetricd_request_duration_seconds histogram")
	for _, n := range names {
		es := t.endpoints[n]
		cum := uint64(0)
		for i, le := range latencyBuckets {
			cum += es.buckets[i]
			fmt.Fprintf(w, "secmetricd_request_duration_seconds_bucket{endpoint=%q,le=\"%g\"} %d\n", n, le, cum)
		}
		cum += es.buckets[len(latencyBuckets)]
		fmt.Fprintf(w, "secmetricd_request_duration_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", n, cum)
		fmt.Fprintf(w, "secmetricd_request_duration_seconds_sum{endpoint=%q} %g\n", n, es.sum)
		fmt.Fprintf(w, "secmetricd_request_duration_seconds_count{endpoint=%q} %d\n", n, es.count)
	}

	phaseNames := make([]string, 0, len(t.phases))
	for n := range t.phases {
		phaseNames = append(phaseNames, n)
	}
	sort.Strings(phaseNames)
	fmt.Fprintln(w, "# HELP secmetricd_phase_seconds_total Busy seconds spent in each pipeline phase, summed over requests.")
	fmt.Fprintln(w, "# TYPE secmetricd_phase_seconds_total counter")
	for _, n := range phaseNames {
		fmt.Fprintf(w, "secmetricd_phase_seconds_total{phase=%q} %g\n", n, t.phases[n].seconds)
	}
	fmt.Fprintln(w, "# HELP secmetricd_phase_spans_total Spans recorded per pipeline phase.")
	fmt.Fprintln(w, "# TYPE secmetricd_phase_spans_total counter")
	for _, n := range phaseNames {
		fmt.Fprintf(w, "secmetricd_phase_spans_total{phase=%q} %d\n", n, t.phases[n].spans)
	}

	fmt.Fprintln(w, "# HELP secmetricd_in_flight_requests Requests currently holding a worker slot.")
	fmt.Fprintln(w, "# TYPE secmetricd_in_flight_requests gauge")
	fmt.Fprintf(w, "secmetricd_in_flight_requests %d\n", t.inFlight.Load())

	fmt.Fprintln(w, "# HELP secmetricd_queued_requests Admitted requests (running plus waiting for a slot).")
	fmt.Fprintln(w, "# TYPE secmetricd_queued_requests gauge")
	fmt.Fprintf(w, "secmetricd_queued_requests %d\n", t.queued.Load())

	fmt.Fprintln(w, "# HELP secmetricd_rejected_total Requests rejected at admission.")
	fmt.Fprintln(w, "# TYPE secmetricd_rejected_total counter")
	fmt.Fprintf(w, "secmetricd_rejected_total{reason=\"queue_full\"} %d\n", t.queueFull.Load())

	fmt.Fprintln(w, "# HELP secmetricd_response_write_errors_total Response bodies that failed mid-write (client gone after the header was sent).")
	fmt.Fprintln(w, "# TYPE secmetricd_response_write_errors_total counter")
	fmt.Fprintf(w, "secmetricd_response_write_errors_total %d\n", t.writeErrors.Load())
}
