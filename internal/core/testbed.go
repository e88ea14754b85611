package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/callgraph"
	"repro/internal/corpus"
	"repro/internal/cwe"
	"repro/internal/dataflow"
	"repro/internal/featcache"
	"repro/internal/findings"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/lint"
	"repro/internal/metrics"
	"repro/internal/minic"
	"repro/internal/ml"
	"repro/internal/singleflight"
	"repro/internal/stats"
	"repro/internal/symexec"
	"repro/internal/trace"
)

// Transformer maps raw feature vectors into model space. It is the part of
// the testbed a deployed model needs at scoring time, so it persists with
// the model while the corpus does not.
type Transformer struct {
	// LogFeatures are transformed as log10(1+x) before training; the
	// volume-like counts are heavy-tailed across four orders of magnitude.
	LogFeatures []string `json:"log_features"`
	// Impute maps feature names to the corpus-median value substituted
	// when the testbed reports zero. Development-history features (churn,
	// developers, age) and deployment features (attack-graph depth) are
	// unavailable when analyzing a bare source tree; scoring them as
	// literal zero would push the vector far outside the training
	// distribution, so the median is the neutral choice.
	Impute map[string]float64 `json:"impute,omitempty"`
}

// Testbed turns a corpus into training datasets (Figure 4's left half) and
// extracts enriched feature vectors from real source trees (§5.3's
// "automated testbed ... collecting code properties in developer's
// codebase").
type Testbed struct {
	Corpus *corpus.Corpus
	*Transformer
}

// DefaultTransformer returns the standard transformation set.
func DefaultTransformer() *Transformer {
	return &Transformer{
		LogFeatures: []string{
			metrics.FeatKLoC, metrics.FeatFiles, metrics.FeatFunctions,
			metrics.FeatCyclomaticTotal, metrics.FeatCyclomaticMax,
			metrics.FeatHalsteadVolume, metrics.FeatHalsteadEffort,
			metrics.FeatHalsteadBugs, metrics.FeatMaxFunctionLen,
			metrics.FeatLongFunctions, metrics.FeatDeeplyNested,
			metrics.FeatManyParams, metrics.FeatGodFiles,
			metrics.FeatMagicNumbers, metrics.FeatTodoDensity,
			metrics.FeatDupLines, metrics.FeatAvgFunctionLen,
			metrics.FeatNetworkCalls, metrics.FeatFileInputs,
			metrics.FeatEnvInputs, metrics.FeatProcessSpawns,
			metrics.FeatPrivilegeOps, metrics.FeatUnsafeCalls,
			metrics.FeatFormatCalls, metrics.FeatEntryPoints,
			metrics.FeatRASQ, metrics.FeatChurn, metrics.FeatDevelopers,
			metrics.FeatTaintedSinks, metrics.FeatLintWarnings,
			metrics.FeatCallFanOut, metrics.FeatCallDepth,
			metrics.FeatInterTaintedSinks, metrics.FeatTaintDepthMax,
			metrics.FeatCWE121Findings, metrics.FeatCWE134Findings,
			metrics.FeatCWE78Findings,
		},
	}
}

// NewTestbed wraps a corpus with the default transformation.
func NewTestbed(c *corpus.Corpus) *Testbed {
	return &Testbed{Corpus: c, Transformer: DefaultTransformer()}
}

// logCols resolves LogFeatures to column indexes.
func (tb *Transformer) logCols() []int {
	idx := map[string]int{}
	for i, n := range metrics.FeatureNames {
		idx[n] = i
	}
	var cols []int
	for _, n := range tb.LogFeatures {
		if i, ok := idx[n]; ok {
			cols = append(cols, i)
		}
	}
	sort.Ints(cols)
	return cols
}

// ImputedFeatures are the features that cannot be measured from a bare
// source tree and therefore receive corpus medians when reported as zero.
var ImputedFeatures = []string{
	metrics.FeatChurn, metrics.FeatDevelopers, metrics.FeatAgeYears,
	metrics.FeatAttackDepth,
}

// Transform applies the feature transformation to a raw vector, returning
// the model-space row.
func (tb *Transformer) Transform(fv metrics.FeatureVector) []float64 {
	row := fv.Slice()
	if tb.Impute != nil {
		for j, name := range metrics.FeatureNames {
			if row[j] == 0 {
				if median, ok := tb.Impute[name]; ok {
					row[j] = median
				}
			}
		}
	}
	cols := map[int]bool{}
	for _, c := range tb.logCols() {
		cols[c] = true
	}
	for j := range row {
		if cols[j] {
			v := row[j]
			if v < 0 {
				v = 0
			}
			row[j] = math.Log10(1 + v)
		}
	}
	return row
}

// FitImputation computes corpus medians for the imputed features and
// installs them on the transformer. Train calls this automatically.
func (tb *Testbed) FitImputation() {
	tb.Impute = map[string]float64{}
	for _, name := range ImputedFeatures {
		var vals []float64
		for _, a := range tb.Corpus.Apps {
			vals = append(vals, a.Features[name])
		}
		if len(vals) > 0 {
			tb.Impute[name] = stats.Median(vals)
		}
	}
}

// DatasetFor builds the classification dataset of one hypothesis: one row
// per corpus application, transformed features, ground-truth label. A
// corpus whose database is missing an application's records is corrupted,
// and fails loudly here rather than silently labeling the app negative
// (a poisoned label would degrade every model trained on the corpus).
func (tb *Testbed) DatasetFor(h Hypothesis) (*ml.Dataset, error) {
	if h.Label == nil {
		// HypManyVulns binds its threshold to the corpus median.
		median := tb.medianVulnCount()
		return tb.datasetWith(func(a corpus.AppProfile) (bool, error) {
			return float64(a.VulnCount) > median, nil
		})
	}
	return tb.datasetWith(func(a corpus.AppProfile) (bool, error) {
		st, err := tb.Corpus.DB.StatsFor(a.App.Name)
		if err != nil {
			return false, fmt.Errorf("core: corrupted corpus: %s has a profile but no CVE records: %w", a.App.Name, err)
		}
		return h.Label(st), nil
	})
}

func (tb *Testbed) datasetWith(label func(corpus.AppProfile) (bool, error)) (*ml.Dataset, error) {
	var X [][]float64
	var Y []float64
	for _, a := range tb.Corpus.Apps {
		X = append(X, tb.Transform(a.Features))
		yes, err := label(a)
		if err != nil {
			return nil, err
		}
		if yes {
			Y = append(Y, 1)
		} else {
			Y = append(Y, 0)
		}
	}
	return ml.NewDataset(append([]string(nil), metrics.FeatureNames...), ClassNames, X, Y)
}

func (tb *Testbed) medianVulnCount() float64 {
	counts := make([]float64, 0, len(tb.Corpus.Apps))
	for _, a := range tb.Corpus.Apps {
		counts = append(counts, float64(a.VulnCount))
	}
	return stats.Median(counts)
}

// RegressionDataset builds the vulnerability-count regression dataset with
// log10(1+count) targets — the same convention the transformer applies to
// volume-like features. The +1 keeps a zero-vulnerability application (legal
// in imported corpora) at target 0 instead of -Inf; Model.Score inverts
// with 10^x - 1.
func (tb *Testbed) RegressionDataset() (*ml.Dataset, error) {
	var X [][]float64
	var Y []float64
	for _, a := range tb.Corpus.Apps {
		X = append(X, tb.Transform(a.Features))
		Y = append(Y, math.Log10(1+float64(a.VulnCount)))
	}
	return ml.NewDataset(append([]string(nil), metrics.FeatureNames...), nil, X, Y)
}

// LoCOnlyDataset projects a hypothesis dataset down to the single kLoC
// column — the paper's straw-man baseline for the ablation benchmarks.
func (tb *Testbed) LoCOnlyDataset(h Hypothesis) (*ml.Dataset, error) {
	full, err := tb.DatasetFor(h)
	if err != nil {
		return nil, err
	}
	for i, n := range full.AttrNames {
		if n == metrics.FeatKLoC {
			return ml.ProjectColumns(full, []int{i}), nil
		}
	}
	return nil, fmt.Errorf("core: kloc column missing")
}

// fileEnrichment is the deep-analysis result of one file. The exported
// fields make it a stable JSON record for the feature cache.
type fileEnrichment struct {
	TaintedSinks  int     `json:"tainted_sinks"`
	FeasiblePaths float64 `json:"feasible_paths"`
	MaxFanOut     int     `json:"max_fan_out"`
	MaxDepth      int     `json:"max_depth"`
	CovSum        float64 `json:"cov_sum"`
	CovRuns       int     `json:"cov_runs"`
	DynPaths      int     `json:"dyn_paths"`
	// Interprocedural taint + CWE-mapped findings (summed / maxed across
	// files like the fields above).
	InterSinks    int `json:"inter_sinks"`
	TaintMaxChain int `json:"taint_max_chain"`
	CWE121        int `json:"cwe121"`
	CWE134        int `json:"cwe134"`
	CWE78         int `json:"cwe78"`
}

// AnalysisVersion identifies the deep-analysis implementation baked into
// enrichFile and its substrates. It is mixed into every feature-cache key,
// so bumping it invalidates all cached enrichments; bump it whenever any
// analysis that feeds fileEnrichment changes behavior (see DESIGN.md's
// AnalysisVersion bump policy).
//
// v2: interprocedural taint engine + CWE-mapped findings counts.
const AnalysisVersion = "enrich-v2"

// ExtractConfig tunes the testbed's extraction pipeline.
type ExtractConfig struct {
	// Jobs bounds the per-file worker pool; <= 0 uses every core.
	Jobs int
	// Cache, when non-nil, memoizes per-file deep-analysis results keyed
	// by content hash, so only files whose bytes changed are re-analyzed.
	Cache *featcache.Cache
	// FileTimeout bounds one file's deep analysis; <= 0 disables the
	// bound. A file that exceeds it degrades to base metrics only (zero
	// enrichment) with a StatusTimeout diagnostic. Timed-out results are
	// never written to the cache, so raising the timeout later re-runs
	// the analysis.
	FileTimeout time.Duration
	// Flight, when non-nil, coalesces identical in-flight deep analyses
	// across concurrent extractions sharing the flight: when two requests
	// race the same cache miss (same analysis version, language, and
	// bytes), one runs the analysis and the other adopts its result with a
	// StatusCoalesced diagnostic. A flight only dedups concurrency — the
	// Cache still owns reuse over time — so it changes cost, never bytes.
	Flight *ExtractFlight
	// FileDone, when non-nil, receives each file's diagnostic as the
	// worker pool finishes it. Calls arrive on worker goroutines in
	// completion order (any order); i indexes tree.Files. Files skipped
	// because the run was canceled are never reported. The streaming
	// endpoints use this to emit per-file records before the run's
	// aggregate exists.
	FileDone func(i int, d FileDiagnostic)
}

// ExtractFlight is the shared in-flight dedup table for per-file deep
// analyses. One flight serves any number of concurrent extractions (the
// daemon owns exactly one, shared by every request and delta session);
// the zero value is ready to use.
type ExtractFlight struct {
	g singleflight.Group[flightResult]
}

// flightResult is what a leader hands its followers: the enrichment plus
// how the analysis ended, so a degraded result is shared as degraded.
type flightResult struct {
	enr    fileEnrichment
	status FileStatus
	detail string
}

// NewExtractFlight returns an empty flight.
func NewExtractFlight() *ExtractFlight { return &ExtractFlight{} }

// Coalesced counts per-file analyses that were adopted from a concurrent
// leader instead of being run (the daemon's coalesced_total metric).
func (f *ExtractFlight) Coalesced() uint64 { return f.g.Shared() }

// ExtractFeatures runs the full static-analysis testbed over a source tree:
// the base extractors plus the deep-analysis enrichment (lint warnings,
// taint findings, symbolic-execution path counts, call-graph shape, and
// sampled dynamic traces) for files that parse as MiniC. The per-file deep
// analyses are independent, so they run on a bounded worker pool.
func ExtractFeatures(tree *metrics.Tree) metrics.FeatureVector {
	fv, _ := ExtractFeaturesWith(context.Background(), tree, ExtractConfig{})
	return fv
}

// ExtractFeaturesWith is ExtractFeatures with cancellation, an explicit
// pool bound, an optional per-file deadline, and an optional
// content-addressed cache. The aggregation is order-independent (sums and
// maxes), so the result is identical for any Jobs value. The only error is
// ctx's, when the run is canceled mid-pool.
func ExtractFeaturesWith(ctx context.Context, tree *metrics.Tree, cfg ExtractConfig) (metrics.FeatureVector, error) {
	fv, _, err := ExtractFeaturesDiagnostics(ctx, tree, cfg)
	return fv, err
}

// ExtractFeaturesDiagnostics is ExtractFeaturesWith plus the per-file
// account of what happened: every file's status (ok / parse-skip /
// cache-hit / timeout / panic-contained) in tree order and the run's
// feature-cache traffic. This is the graceful-degradation contract: a
// panicking or runaway deep analysis costs one file's enrichment, never
// the process, and the loss is recorded rather than silent.
func ExtractFeaturesDiagnostics(ctx context.Context, tree *metrics.Tree, cfg ExtractConfig) (metrics.FeatureVector, *AnalysisDiagnostics, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	// Tracing is carried by the context; with no span attached every trace
	// call below is a nil no-op and the run is byte-identical to an
	// uninstrumented one. The sequential phases use Child (seqs 0 and 1);
	// the parallel per-file spans use ChildAt with the file index offset
	// past them, so the span tree is deterministic at any pool width.
	ext := trace.SpanFromContext(ctx).Child("extract")
	defer ext.End()

	bs := ext.Child("base")
	fv := metrics.Extract(tree)
	bs.End()

	ls := ext.Child("lint")
	rep := lint.Check(tree)
	ls.End()
	fv[metrics.FeatLintWarnings] = float64(rep.Total())

	// Cache traffic is counted per run, not as a delta over the cache's
	// process-global counters: with a shared cache (secmetricd), concurrent
	// runs' global-counter windows overlap and would attribute each
	// other's hits and misses.
	var ct cacheTraffic

	enriched := make([]fileEnrichment, len(tree.Files))
	diag := &AnalysisDiagnostics{Files: make([]FileDiagnostic, len(tree.Files))}
	_ = ml.ParallelForCtx(ctx, len(tree.Files), cfg.Jobs, func(i int) error {
		f := tree.Files[i]
		fs := ext.ChildAt(fileSpanSeqBase+i, trace.SpanNameFile)
		fs.SetLabel(f.Path)
		fs.Add("bytes", int64(len(f.Content)))
		enr, status, detail := enrichFileCached(ctx, f, cfg, &ct, fs)
		fs.End()
		enriched[i] = enr
		diag.Files[i] = FileDiagnostic{Path: f.Path, Status: status, Detail: detail}
		if cfg.FileDone != nil {
			cfg.FileDone(i, diag.Files[i])
		}
		return nil
	})
	// The body never fails, so the pool's only error is ctx's. ctx is
	// checked here instead, because a single-worker pool reports a run
	// canceled during its last file as clean, and that run is discarded too.
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	setEnrichmentFeatures(fv, aggregateEnrichments(enriched))
	diag.CacheHits, diag.CacheMisses = ct.hits.Load(), ct.misses.Load()
	diag.Coalesced = ct.coalesced.Load()
	return fv, diag, nil
}

// cacheTraffic counts one run's feature-cache hits and misses, plus the
// misses that coalesced onto a concurrent leader's analysis. Each
// extraction (and each session changeset) owns its own instance, so
// concurrent runs over a shared cache report only their own traffic.
type cacheTraffic struct {
	hits, misses, coalesced atomic.Uint64
}

// aggregateEnrichments folds per-file enrichments, in slice order, into the
// tree-level aggregate. Every field is an integer sum, a float sum, or a
// max. The integer fields and maxes are order-independent; the float sums
// (FeasiblePaths, CovSum) are not associative under reordering, so callers
// needing byte parity with a batch extraction must pass the slice in tree
// (path-sorted) order — which is why the incremental session re-folds with
// this same function instead of maintaining float sums by delta.
func aggregateEnrichments(enriched []fileEnrichment) fileEnrichment {
	var agg fileEnrichment
	for _, r := range enriched {
		agg.TaintedSinks += r.TaintedSinks
		agg.FeasiblePaths += r.FeasiblePaths
		if r.MaxFanOut > agg.MaxFanOut {
			agg.MaxFanOut = r.MaxFanOut
		}
		if r.MaxDepth > agg.MaxDepth {
			agg.MaxDepth = r.MaxDepth
		}
		agg.CovSum += r.CovSum
		agg.CovRuns += r.CovRuns
		agg.DynPaths += r.DynPaths
		agg.InterSinks += r.InterSinks
		if r.TaintMaxChain > agg.TaintMaxChain {
			agg.TaintMaxChain = r.TaintMaxChain
		}
		agg.CWE121 += r.CWE121
		agg.CWE134 += r.CWE134
		agg.CWE78 += r.CWE78
	}
	return agg
}

// setEnrichmentFeatures writes the aggregated deep-analysis values into
// the feature vector — the one place the enrichment-to-feature mapping
// lives, shared by the batch extractor and the incremental session.
func setEnrichmentFeatures(fv metrics.FeatureVector, agg fileEnrichment) {
	fv[metrics.FeatTaintedSinks] = float64(agg.TaintedSinks)
	fv[metrics.FeatFeasiblePaths] = math.Log10(1 + agg.FeasiblePaths)
	fv[metrics.FeatCallFanOut] = float64(agg.MaxFanOut)
	fv[metrics.FeatCallDepth] = float64(agg.MaxDepth)
	if agg.CovRuns > 0 {
		fv[metrics.FeatDynBranchCov] = agg.CovSum / float64(agg.CovRuns)
	} else {
		fv[metrics.FeatDynBranchCov] = 0
	}
	fv[metrics.FeatDynUniquePaths] = math.Log10(1 + float64(agg.DynPaths))
	fv[metrics.FeatInterTaintedSinks] = float64(agg.InterSinks)
	fv[metrics.FeatTaintDepthMax] = float64(agg.TaintMaxChain)
	fv[metrics.FeatCWE121Findings] = float64(agg.CWE121)
	fv[metrics.FeatCWE134Findings] = float64(agg.CWE134)
	fv[metrics.FeatCWE78Findings] = float64(agg.CWE78)
}

// fileSpanSeqBase offsets per-file span sequence keys past the sequential
// phases of the extract span (base = 0, lint = 1), keeping the two seq
// ranges disjoint so render order is well-defined.
const fileSpanSeqBase = 2

// deepSpanSeq is the adopted deep-analysis subtree's sequence key under a
// file span; the cache probe (when present) takes Child seq 0.
const deepSpanSeq = 1

// enrichFileCached consults the cache before running the deep analyses.
// The key covers the analysis version, the file language, and the file
// bytes — the complete input of enrichFile — so a hit is always safe to
// reuse and any content change is a miss. Only completed analyses (ok or
// parse-skip, both deterministic in the file bytes) are written back: a
// timed-out or panic-contained zero is a degraded result, and caching it
// would make the degradation permanent even after the timeout is raised
// or the analyzer bug fixed.
//
// With a Flight configured, concurrent misses on the same key coalesce:
// one caller (the leader) runs the analysis and writes the cache, the
// rest adopt its result. The leader runs under a cancel-free context —
// the deep analysis is non-preemptible CPU work bounded by FileTimeout,
// so finishing it always costs the same, and finishing lets the result
// land in the cache and in every follower even when the leader's own
// request was canceled (the leader's run is discarded by its caller's
// ctx check regardless).
func enrichFileCached(ctx context.Context, f metrics.File, cfg ExtractConfig, ct *cacheTraffic, fs *trace.Span) (fileEnrichment, FileStatus, string) {
	if cfg.Cache == nil && cfg.Flight == nil {
		return enrichFileBounded(ctx, f, cfg.FileTimeout, fs)
	}
	key := featcache.Key(AnalysisVersion, f.Language.String(), f.Content)
	if cfg.Cache != nil {
		cs := fs.Child("cache")
		var out fileEnrichment
		hit := cfg.Cache.GetJSON(key, &out)
		cs.End()
		if hit {
			ct.hits.Add(1)
			fs.Add("cache_hit", 1)
			return out, StatusCacheHit, ""
		}
		ct.misses.Add(1)
	}
	if cfg.Flight == nil {
		out, status, detail := enrichFileBounded(ctx, f, cfg.FileTimeout, fs)
		cachePut(cfg, key, out, status)
		return out, status, detail
	}
	res, shared, err := cfg.Flight.g.Do(ctx, key, func() flightResult {
		enr, status, detail := enrichFileBounded(context.WithoutCancel(ctx), f, cfg.FileTimeout, fs)
		cachePut(cfg, key, enr, status)
		return flightResult{enr: enr, status: status, detail: detail}
	})
	if err != nil {
		// Follower canceled while waiting; the whole run is being torn
		// down and its output discarded, so only a non-ok status matters.
		return fileEnrichment{}, StatusTimeout, err.Error()
	}
	if shared {
		if res.status == StatusTimeout || res.status == StatusPanic {
			// An adopted degradation is still a degradation; reporting it
			// as coalesced would hide the zero enrichment from the
			// diagnostics.
			return res.enr, res.status, res.detail
		}
		ct.coalesced.Add(1)
		fs.Add("coalesced", 1)
		return res.enr, StatusCoalesced, ""
	}
	return res.enr, res.status, res.detail
}

// cachePut writes one completed analysis back to the cache. A failed write
// only costs a future re-analysis; the result is still correct, so cache
// errors are deliberately not fatal.
func cachePut(cfg ExtractConfig, key string, enr fileEnrichment, status FileStatus) {
	if cfg.Cache == nil {
		return
	}
	if status == StatusOK || status == StatusParseSkip {
		_ = cfg.Cache.PutJSON(key, enr)
	}
}

// enrichFileBounded applies the per-file deadline. The analysis itself is
// not preemptible, so a timed-out analysis keeps running on its goroutine
// until it finishes on its own; its result is discarded and the file
// degrades to a zero enrichment immediately. Without a deadline the
// analysis runs inline on the worker.
//
// The deep-analysis phases record into a detached span subtree that is
// adopted into the file span only when the result is accepted. An
// abandoned (timed-out or canceled) analysis keeps writing to its
// detached subtree, which is never read again — so the runaway goroutine
// can never race the trace exporter, at the cost of a timed-out file
// losing its phase breakdown (its diagnostic already names it).
func enrichFileBounded(ctx context.Context, f metrics.File, timeout time.Duration, fs *trace.Span) (fileEnrichment, FileStatus, string) {
	deep := fs.Detached("deep")
	if timeout <= 0 {
		enr, status, detail := enrichFileSafe(f, deep)
		deep.End()
		fs.Adopt(deep, deepSpanSeq)
		return enr, status, detail
	}
	type result struct {
		enr    fileEnrichment
		status FileStatus
		detail string
	}
	ch := make(chan result, 1) // buffered: the late finisher must not leak forever
	go func() {
		enr, status, detail := enrichFileSafe(f, deep)
		deep.End() // before the send: adoption must never race recording
		ch <- result{enr, status, detail}
	}()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		fs.Adopt(deep, deepSpanSeq)
		return r.enr, r.status, r.detail
	case <-timer.C:
		return fileEnrichment{}, StatusTimeout, fmt.Sprintf("deep analysis exceeded %v; degraded to base metrics", timeout)
	case <-ctx.Done():
		// The whole run is being canceled; the caller discards this
		// result, so the status only needs to be non-ok.
		return fileEnrichment{}, StatusTimeout, ctx.Err().Error()
	}
}

// enrichTestHook, when non-nil, runs at the top of every file's deep
// analysis inside the recover() boundary. It exists so tests can inject
// panics and stalls into the pipeline without a pathological input file;
// production code never sets it.
var enrichTestHook func(f metrics.File)

// enrichFileSafe is the panic boundary of the pipeline: a bug anywhere in
// the deep analyses (symexec, dataflow, callgraph, interp, stats
// preconditions) is contained to this file, which degrades to a zero
// enrichment with a StatusPanic diagnostic instead of killing the process.
// The degradation is deterministic — the same file panics the same way at
// any pool width — so the determinism contract of ExtractFeaturesWith
// survives containment.
func enrichFileSafe(f metrics.File, sp *trace.Span) (enr fileEnrichment, status FileStatus, detail string) {
	defer func() {
		if r := recover(); r != nil {
			enr = fileEnrichment{}
			status = StatusPanic
			detail = fmt.Sprintf("deep analysis panicked: %v", r)
		}
	}()
	if enrichTestHook != nil {
		enrichTestHook(f)
	}
	return enrichFile(f, sp)
}

// enrichFile runs the deep analyses over one file; files that do not parse
// as MiniC contribute the CWE-mapped token-rule findings but nothing else
// beyond the base metrics (real C rarely parses as MiniC; the token metrics
// already cover it), and report parse-skip so the omission is visible in the
// diagnostics.
func enrichFile(f metrics.File, sp *trace.Span) (fileEnrichment, FileStatus, string) {
	var out fileEnrichment
	// The findings layer applies to every file: token-level lint rules need
	// no parse, and the IR-based producers gate themselves on parseability.
	fds := sp.Child("findings")
	fa := findings.AnalyzeFile(f)
	fds.End()
	out.InterSinks = fa.InterTaintSinks
	out.TaintMaxChain = fa.TaintMaxChain
	for _, fd := range fa.Findings {
		if fd.CWE == 0 {
			continue
		}
		switch {
		case cwe.IsA(fd.CWE, 121):
			out.CWE121++
		case cwe.IsA(fd.CWE, 134):
			out.CWE134++
		case cwe.IsA(fd.CWE, 78):
			out.CWE78++
		}
	}
	if f.Language != lang.MiniC && f.Language != lang.C {
		return out, StatusOK, ""
	}
	ps := sp.Child("parse")
	prog, err := minic.Parse(f.Content)
	if err != nil {
		ps.End()
		return out, StatusParseSkip, fmt.Sprintf("not parsed as MiniC: %v", err)
	}
	lowered, err := ir.Lower(prog)
	ps.End()
	if err != nil {
		return out, StatusParseSkip, fmt.Sprintf("IR lowering failed: %v", err)
	}
	ts := sp.Child("taint")
	out.TaintedSinks = dataflow.CountTaintedSinks(lowered)
	ts.End()
	ss := sp.Child("symexec")
	cfg := symexec.DefaultConfig()
	for _, fn := range lowered.Funcs {
		out.FeasiblePaths += float64(symexec.Explore(fn, cfg).FeasiblePaths)
	}
	ss.End()
	cs := sp.Child("callgraph")
	cg := callgraph.Build(lowered)
	out.MaxFanOut = cg.MaxFanOut()
	out.MaxDepth = cg.Depth()
	cs.End()
	is := sp.Child("interp")
	for _, root := range cg.Roots() {
		prof, err := interp.ProfileFunc(lowered, root, 24, 0xd1ce)
		if err != nil {
			continue
		}
		out.CovSum += prof.BranchCoverage
		out.CovRuns++
		out.DynPaths += prof.UniquePaths
	}
	is.End()
	return out, StatusOK, ""
}
