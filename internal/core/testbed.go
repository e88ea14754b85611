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
	"repro/internal/ml"
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
	// LintWarnings is lint.CheckFile's total for the file exactly as
	// given — the file's share of the lint_warnings feature. It is the one
	// enrichment a degraded file still carries (see enrichFileDeadline).
	LintWarnings int `json:"lint_warnings"`
}

// AnalysisVersion identifies the deep-analysis implementation baked into
// enrichFile and its substrates. It is mixed into every feature-cache key,
// enrichment and findings records alike, so bumping it invalidates both;
// bump it whenever any analysis that feeds fileEnrichment or
// findings.AnalyzeFile changes behavior, lint rules included (see
// DESIGN.md's AnalysisVersion bump policy).
//
// v2: interprocedural taint engine + CWE-mapped findings counts.
// v3: the per-file lint-warning count.
// v4: IR temporaries are spelled $<N>, apart from every MiniC name.
// v5: findings run at the file's own language, never its path's, and
// lint's missing-return rule reports a line where it reported 0.
const AnalysisVersion = "enrich-v5"

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
	// FileDone, when non-nil, receives each file's diagnostic as the
	// worker pool finishes it. Calls arrive on worker goroutines in
	// completion order (any order); i indexes tree.Files. Files skipped
	// because the run was canceled are never reported. The streaming
	// endpoints use this to emit per-file records before the run's
	// aggregate exists.
	FileDone func(i int, d FileDiagnostic)
}

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
	// uninstrumented one. The sequential base phase uses Child (seq 0); the
	// parallel per-file spans use ChildAt with the file index offset past
	// it, so the span tree is deterministic at any pool width.
	ext := trace.SpanFromContext(ctx).Child("extract")
	defer ext.End()

	bs := ext.Child("base")
	fv := metrics.Extract(tree)
	bs.End()

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
	return fv, diag, nil
}

// cacheTraffic counts one run's feature-cache hits and misses. Each
// extraction (and each session changeset) owns its own instance, so
// concurrent runs over a shared cache report only their own traffic.
type cacheTraffic struct {
	hits, misses atomic.Uint64
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
		agg.LintWarnings += r.LintWarnings
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
	fv[metrics.FeatLintWarnings] = float64(agg.LintWarnings)
}

// fileSpanSeqBase offsets per-file span sequence keys past the sequential
// phase of the extract span (base = 0), keeping the two seq ranges
// disjoint so render order is well-defined.
const fileSpanSeqBase = 1

// deepSpanSeq is the adopted deep-analysis subtree's sequence key under a
// file span; the cache probe (when present) takes Child seq 0.
const deepSpanSeq = 1

// enrichFileCached consults the cache before running the deep analyses.
// The key covers the analysis version, the file's language and its bytes.
// enrichFile reads exactly the language and the bytes, never the path, so
// a hit equals a fresh analysis of the file at any path and any content
// change is a miss. Only completed analyses (ok or parse-skip, both
// deterministic in the file bytes) are written back: a timed-out or
// panic-contained zero is a degraded result, and caching it would make the
// degradation permanent even after the timeout is raised or the analyzer
// bug fixed. A failed write only costs a future re-analysis, so cache
// errors are deliberately not fatal.
//
// Concurrent misses on the same bytes (two requests, or a request and a
// delta session, racing a new file) each run the analysis and each write
// the same record under the same key, which both cache backends tolerate;
// the analysis is deterministic, so every racer reports the same bytes.
func enrichFileCached(ctx context.Context, f metrics.File, cfg ExtractConfig, ct *cacheTraffic, fs *trace.Span) (fileEnrichment, FileStatus, string) {
	if cfg.Cache == nil {
		return enrichFileDeadline(ctx, f, cfg.FileTimeout, fs)
	}
	key := enrichmentKey(f)
	cs := fs.Child("cache")
	out, hit := featcache.Get[fileEnrichment](cfg.Cache, key)
	cs.End()
	if hit {
		ct.hits.Add(1)
		fs.Add("cache_hit", 1)
		return out, StatusCacheHit, ""
	}
	ct.misses.Add(1)
	out, status, detail := enrichFileDeadline(ctx, f, cfg.FileTimeout, fs)
	if status == StatusOK || status == StatusParseSkip {
		_ = featcache.Put(cfg.Cache, key, out)
	}
	return out, status, detail
}

// enrichmentKey is the feature-cache key of f's enrichment record.
func enrichmentKey(f metrics.File) string {
	return featcache.Key(AnalysisVersion, f.Language.String(), f.Content)
}

// enrichFileDeadline runs one file's deep analysis under runContained's
// panic boundary and per-file deadline. A degraded file (timeout or
// contained panic) loses its deep enrichment but still counts its lint
// warnings: they are recounted here, on the worker and without a span of
// their own, for the file exactly as given, and never cached.
//
// The deep-analysis phases record into a detached span subtree that is
// adopted into the file span only when the result is accepted. An
// abandoned (timed-out or canceled) analysis keeps writing to its
// detached subtree, which is never read again — so the runaway goroutine
// can never race the trace exporter, at the cost of a timed-out file
// losing its phase breakdown (its diagnostic already names it).
func enrichFileDeadline(ctx context.Context, f metrics.File, timeout time.Duration, fs *trace.Span) (fileEnrichment, FileStatus, string) {
	deep := fs.Detached("deep")
	enr, status, detail, done := runContained(ctx, timeout, "deep analysis", func() (fileEnrichment, FileStatus, string) {
		defer deep.End() // before the hand-over: adoption must never race recording
		if enrichTestHook != nil {
			enrichTestHook(f)
		}
		return enrichFile(f.Language, f.Content, deep)
	})
	switch {
	case done:
		fs.Adopt(deep, deepSpanSeq)
	case ctx.Err() != nil:
		// The whole run is being canceled; the caller discards this
		// result, so the status only needs to be non-ok.
		return fileEnrichment{}, status, detail
	default:
		detail += "; degraded to base metrics"
	}
	if status == StatusTimeout || status == StatusPanic {
		ast, prog, _ := ir.Parse(f.Content)
		enr.LintWarnings = lint.CheckFile(f, ast, prog).Total()
	}
	return enr, status, detail
}

// enrichTestHook, when non-nil, runs at the top of every file's deep
// analysis inside the recover() boundary. It exists so tests can inject
// panics and stalls into the pipeline without a pathological input file;
// production code never sets it.
var enrichTestHook func(f metrics.File)

// runContained is the per-file containment both per-file analyses (the
// deep enrichment and the findings pass) run under. A panic inside analyze
// is the panic boundary of the pipeline: a bug anywhere in the analyzers
// is contained to this file, which degrades to a zero result with a
// StatusPanic diagnostic naming what panicked, instead of killing the
// process. The degradation is deterministic — the same file panics the
// same way at any pool width — so the determinism contract survives
// containment.
//
// With a positive timeout, analyze runs on its own goroutine. The
// analyzers are not preemptible, so one that outlives the deadline keeps
// running until it finishes on its own; its result is discarded and the
// file degrades immediately to a zero result with StatusTimeout. A
// canceled ctx stops the wait the same way, with ctx's error as the
// detail. Without a timeout, analyze runs inline on the worker. done
// reports whether analyze's own outcome (a result or a contained panic)
// was used.
func runContained[T any](ctx context.Context, timeout time.Duration, what string, analyze func() (T, FileStatus, string)) (out T, status FileStatus, detail string, done bool) {
	safe := func() (out T, status FileStatus, detail string) {
		defer func() {
			if r := recover(); r != nil {
				var zero T
				out, status, detail = zero, StatusPanic, fmt.Sprintf("%s panicked: %v", what, r)
			}
		}()
		return analyze()
	}
	if timeout <= 0 {
		out, status, detail = safe()
		return out, status, detail, true
	}
	type result struct {
		out    T
		status FileStatus
		detail string
	}
	ch := make(chan result, 1) // buffered: the late finisher must not leak forever
	go func() {
		out, status, detail := safe()
		ch <- result{out, status, detail}
	}()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.out, r.status, r.detail, true
	case <-timer.C:
		return out, StatusTimeout, fmt.Sprintf("%s exceeded %v", what, timeout), false
	case <-ctx.Done():
		return out, StatusTimeout, ctx.Err().Error(), false
	}
}

// enrichFile runs the deep analyses over one file of language l whose
// bytes are content: exactly the enrichment record's key, so the record is
// a function of its key. It parses the file once and hands the parse to the
// findings layer and the deep passes, all at l. Files that do not parse as
// MiniC contribute the CWE-mapped token-rule findings but nothing else
// beyond the base metrics (real C rarely parses as MiniC; the token metrics
// already cover it), and report parse-skip so the omission is visible in
// the diagnostics.
func enrichFile(l lang.Language, content string, sp *trace.Span) (fileEnrichment, FileStatus, string) {
	var out fileEnrichment
	// Every file is parsed: lint's AST rules apply in any language.
	ps := sp.Child("parse")
	ast, prog, err := ir.Parse(content)
	ps.End()
	// The findings layer applies to every file: token-level lint rules need
	// no parse, and the IR-based producers gate themselves on the parse.
	fds := sp.Child("findings")
	fa := findings.AnalyzeFile(l, content, ast, prog)
	fds.End()
	out.InterSinks = fa.InterTaintSinks
	out.TaintMaxChain = fa.TaintMaxChain
	out.LintWarnings = fa.LintWarnings
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
	if l != lang.MiniC && l != lang.C {
		return out, StatusOK, ""
	}
	if ast == nil {
		return out, StatusParseSkip, fmt.Sprintf("not parsed as MiniC: %v", err)
	}
	if prog == nil {
		return out, StatusParseSkip, fmt.Sprintf("IR lowering failed: %v", err)
	}
	ts := sp.Child("taint")
	out.TaintedSinks = dataflow.CountTaintedSinks(prog)
	ts.End()
	ss := sp.Child("symexec")
	for _, fn := range prog.Funcs {
		out.FeasiblePaths += float64(symexec.Explore(fn, symexec.DefaultLoopBound).FeasiblePaths)
	}
	ss.End()
	cs := sp.Child("callgraph")
	cg := callgraph.Build(prog)
	out.MaxFanOut = cg.MaxFanOut()
	out.MaxDepth = cg.Depth()
	cs.End()
	is := sp.Child("interp")
	for _, root := range cg.Roots() {
		prof, err := interp.ProfileFunc(prog, root)
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
