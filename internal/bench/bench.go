// Package bench is the fixed-scale performance harness behind `secmetric
// bench`. It runs the workloads the serving path is built from — tokenize,
// base-metric extraction, lint, full analysis, incremental one-file
// applies against a warm session, forest training, batched forest
// inference, model scoring, model loading, and the embedded storage
// engine (committed puts, snapshot scans, index-planned history queries)
// — at pinned scales,
// measures ns/op, allocs/op, and bytes/op from runtime.MemStats deltas, and
// emits a JSON report (BENCH_<rev>.json) that verify.sh compares against
// the committed baseline.
//
// Scales never change with Quick; only the per-workload measurement budget
// does, so ns/op stays comparable between a committed full run and a CI
// smoke run. Every randomized input is drawn from a fixed seed and every
// concurrent knob is pinned to one worker, so run-to-run variance is
// scheduling noise only.
package bench

import (
	"fmt"
	"runtime"
	"time"
)

// Workload scales, pinned forever: changing any of these invalidates every
// committed BENCH_*.json. Bump benchFormatVersion instead of comparing
// across a scale change.
const (
	benchFormatVersion = 1

	// TreeFiles is the number of vulnapp replicas in the extraction tree.
	TreeFiles = 16
	// FitRows / FitCols size the forest-training dataset.
	FitRows = 400
	FitCols = 44
	// FitTrees / FitDepth configure the benchmark forest.
	FitTrees = 20
	FitDepth = 10
	// ServeTrees / ServeDepth configure the serving ensemble that
	// forest_batch predicts with — a deliberately production-sized forest
	// (standard random-forest defaults), round-tripped through its
	// serialized form so the workload measures inference with a loaded
	// model, the state the scoring daemon actually holds.
	ServeTrees = 100
	ServeDepth = 12
	// BatchRows is the number of rows one forest_batch op predicts.
	BatchRows = 4096
	// ModelTrees is the per-hypothesis tree count of the persisted
	// benchmark model (model_load_* workloads).
	ModelTrees = 20
	// StoreKeys / StoreValueBytes size the KV store the store_put and
	// store_scan workloads run against; StoreRuns / StoreRepos size the
	// findings history behind query_indexed.
	StoreKeys       = 2000
	StoreValueBytes = 256
	StoreRuns       = 256
	StoreRepos      = 4
	// CoalesceFanout is the burst width of the score_coalesced workload:
	// how many identical concurrent scores one op fans through the
	// singleflight group (the per-file extraction flight's dedup primitive).
	CoalesceFanout = 8

	benchSeed = 0xbe9c4
)

// Result is one workload's measurement.
type Result struct {
	Name        string  `json:"name"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// PhaseTotal mirrors trace.PhaseTotal for the report without importing the
// trace package into every consumer of a decoded report.
type PhaseTotal struct {
	Phase   string  `json:"phase"`
	Seconds float64 `json:"seconds"`
	Count   int     `json:"count"`
}

// Report is the serialized form of one bench run.
type Report struct {
	Version   int            `json:"version"`
	Rev       string         `json:"rev"`
	GoVersion string         `json:"go"`
	Quick     bool           `json:"quick"`
	Scales    map[string]int `json:"scales"`
	Results   []Result       `json:"results"`
	// ExtractPhases is the per-phase busy-time breakdown of one traced
	// full-analysis run over the benchmark tree (from the trace layer), so
	// the report shows where extraction time goes, not just how much.
	ExtractPhases []PhaseTotal `json:"extract_phases,omitempty"`
}

// Options tunes a run.
type Options struct {
	// Quick shortens the per-workload measurement budget (for CI smokes);
	// workload scales are unchanged.
	Quick bool
	// Rev labels the report (the <rev> of BENCH_<rev>.json).
	Rev string
	// Dir is the example tree the extraction workloads replicate;
	// defaults to examples/vulnapp.
	Dir string
	// Only restricts the run to the named workloads (empty = all). Used to
	// re-measure suspected regressions without repeating the whole suite.
	Only []string
	// Logf, when non-nil, receives one progress line per workload.
	Logf func(format string, args ...any)
}

func (o *Options) budget() time.Duration {
	if o.Quick {
		return 150 * time.Millisecond
	}
	return time.Second
}

func (o *Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// measure times fn until the budget elapses (at least 3 iterations), after
// one warm-up call, and reads allocation deltas around the timed loop. The
// warm-up primes caches and pools so steady-state allocs/op is measured,
// not first-call setup.
func measure(name string, budget time.Duration, fn func()) Result {
	fn()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	iters := 0
	for {
		fn()
		iters++
		if iters >= 3 && time.Since(start) >= budget {
			break
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	n := float64(iters)
	return Result{
		Name:        name,
		Iters:       iters,
		NsPerOp:     float64(elapsed.Nanoseconds()) / n,
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / n,
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / n,
	}
}

// Run executes every workload and assembles the report.
func Run(opts Options) (*Report, error) {
	if opts.Dir == "" {
		opts.Dir = "examples/vulnapp"
	}
	if opts.Rev == "" {
		opts.Rev = "dev"
	}
	rep := &Report{
		Version:   benchFormatVersion,
		Rev:       opts.Rev,
		GoVersion: runtime.Version(),
		Quick:     opts.Quick,
		Scales: map[string]int{
			"tree_files":      TreeFiles,
			"fit_rows":        FitRows,
			"fit_cols":        FitCols,
			"fit_trees":       FitTrees,
			"fit_depth":       FitDepth,
			"batch_rows":      BatchRows,
			"model_trees":     ModelTrees,
			"store_keys":      StoreKeys,
			"store_runs":      StoreRuns,
			"coalesce_fanout": CoalesceFanout,
		},
	}
	ws, err := setupWorkloads(opts.Dir)
	if err != nil {
		return nil, err
	}
	defer ws.close()
	only := map[string]bool{}
	for _, name := range opts.Only {
		only[name] = true
	}
	budget := opts.budget()
	for _, w := range ws.list() {
		if len(only) > 0 && !only[w.name] {
			continue
		}
		opts.logf("bench: %s...", w.name)
		r := measure(w.name, budget, w.fn)
		opts.logf(" %s ns/op=%.0f allocs/op=%.1f\n", w.name, r.NsPerOp, r.AllocsPerOp)
		rep.Results = append(rep.Results, r)
	}
	rep.ExtractPhases = ws.phaseTotals()
	return rep, nil
}

// Compare checks cur against base: any shared workload whose ns/op grew by
// more than maxRegress (0.25 = 25%) is reported. The returned slice is
// empty when cur is within bounds everywhere.
func Compare(cur, base *Report, maxRegress float64) []string {
	baseBy := map[string]Result{}
	for _, r := range base.Results {
		baseBy[r.Name] = r
	}
	var regressions []string
	for _, r := range cur.Results {
		b, ok := baseBy[r.Name]
		if !ok || b.NsPerOp <= 0 {
			continue
		}
		ratio := r.NsPerOp / b.NsPerOp
		if ratio > 1+maxRegress {
			regressions = append(regressions,
				fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f ns/op (%.2fx, limit %.2fx)",
					r.Name, r.NsPerOp, b.NsPerOp, ratio, 1+maxRegress))
		}
	}
	return regressions
}

// Regressed returns the names of cur's workloads whose ns/op exceeds the
// baseline by more than maxRegress. Compare formats the same set for
// humans; this form feeds a targeted re-measurement.
func Regressed(cur, base *Report, maxRegress float64) []string {
	baseBy := map[string]Result{}
	for _, r := range base.Results {
		baseBy[r.Name] = r
	}
	var names []string
	for _, r := range cur.Results {
		b, ok := baseBy[r.Name]
		if !ok || b.NsPerOp <= 0 {
			continue
		}
		if r.NsPerOp/b.NsPerOp > 1+maxRegress {
			names = append(names, r.Name)
		}
	}
	return names
}

// Replace overwrites rep's results for workloads re-measured in next,
// leaving the rest untouched.
func Replace(rep *Report, next *Report) {
	for _, nr := range next.Results {
		for i, r := range rep.Results {
			if r.Name == nr.Name {
				rep.Results[i] = nr
			}
		}
	}
}
