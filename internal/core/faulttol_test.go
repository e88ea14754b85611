package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/featcache"
	"repro/internal/langgen"
	"repro/internal/lint"
	"repro/internal/metrics"
	"repro/internal/ml"
)

// setHook installs the enrichment test hook for one test and restores the
// nil production value afterwards.
func setHook(t *testing.T, hook func(f metrics.File)) {
	t.Helper()
	enrichTestHook = hook
	t.Cleanup(func() { enrichTestHook = nil })
}

// assertLintCount checks the lint_warnings feature against a tree-wide lint
// pass over the tree as given — the count every file's record, degraded or
// cached, must add up to.
func assertLintCount(t *testing.T, fv metrics.FeatureVector, tree *metrics.Tree) {
	t.Helper()
	if got, want := fv[metrics.FeatLintWarnings], float64(lint.Check(tree).Total()); got != want {
		t.Fatalf("lint_warnings = %v, want %v (lint.Check over the tree)", got, want)
	}
}

func assertFinite(t *testing.T, fv metrics.FeatureVector) {
	t.Helper()
	for _, n := range metrics.FeatureNames {
		v, ok := fv[n]
		if !ok {
			t.Fatalf("feature %s missing from vector", n)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("feature %s = %v", n, v)
		}
	}
}

// TestEnrichPanicContainedAndDeterministic is the tentpole acceptance test:
// a deep analysis that panics on one file costs that file's enrichment, not
// the process, the diagnostics name the file, and the degraded vector is
// identical at any pool width.
func TestEnrichPanicContainedAndDeterministic(t *testing.T) {
	spec := langgen.DefaultSpec()
	spec.Files = 4
	tree := langgen.Generate(spec)
	victim := tree.Files[1].Path
	setHook(t, func(f metrics.File) {
		if f.Path == victim {
			panic("injected analyzer bug")
		}
	})

	extract := func(jobs int) (metrics.FeatureVector, *AnalysisDiagnostics) {
		fv, diag, err := ExtractFeaturesDiagnostics(context.Background(), tree, ExtractConfig{Jobs: jobs})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		return fv, diag
	}
	seqFV, seqDiag := extract(1)
	parFV, parDiag := extract(8)

	assertFinite(t, seqFV)
	for _, n := range metrics.FeatureNames {
		if seqFV[n] != parFV[n] {
			t.Fatalf("containment broke determinism: feature %s = %v (jobs=1) vs %v (jobs=8)", n, seqFV[n], parFV[n])
		}
	}
	assertLintCount(t, seqFV, tree)
	for _, diag := range []*AnalysisDiagnostics{seqDiag, parDiag} {
		if got := diag.Files[1]; got.Status != StatusPanic || got.Path != victim {
			t.Fatalf("victim diagnostic = %+v, want %s with status %s", got, victim, StatusPanic)
		}
		if !strings.Contains(diag.Files[1].Detail, "injected analyzer bug") {
			t.Fatalf("panic detail lost: %q", diag.Files[1].Detail)
		}
		if deg := diag.Degraded(); len(deg) != 1 || deg[0].Path != victim {
			t.Fatalf("Degraded() = %+v, want exactly %s", deg, victim)
		}
		if diag.Clean() {
			t.Fatal("diagnostics with a contained panic reported Clean")
		}
	}

	// The non-victim files must still be fully analyzed.
	for i, f := range seqDiag.Files {
		if i == 1 {
			continue
		}
		if f.Status != StatusOK && f.Status != StatusParseSkip {
			t.Fatalf("bystander %s has status %s", f.Path, f.Status)
		}
	}
}

// TestEnrichPanicNotCached: a panic-degraded zero enrichment must not be
// written to the feature cache — once the analyzer bug is fixed the next run
// re-analyzes the file instead of replaying the degradation forever.
func TestEnrichPanicNotCached(t *testing.T) {
	spec := langgen.DefaultSpec()
	spec.Files = 3
	tree := langgen.Generate(spec)
	victim := tree.Files[0].Path
	cache, err := featcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := ExtractConfig{Cache: cache}

	setHook(t, func(f metrics.File) {
		if f.Path == victim {
			panic("transient analyzer bug")
		}
	})
	if _, diag, err := ExtractFeaturesDiagnostics(context.Background(), tree, cfg); err != nil {
		t.Fatal(err)
	} else if diag.Files[0].Status != StatusPanic {
		t.Fatalf("victim status = %s, want %s", diag.Files[0].Status, StatusPanic)
	}

	// "Fix the bug" and re-run against the same cache.
	enrichTestHook = nil
	_, diag, err := ExtractFeaturesDiagnostics(context.Background(), tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if diag.Files[0].Status == StatusCacheHit {
		t.Fatal("degraded result was served from the cache")
	}
	if diag.CacheMisses != 1 {
		t.Fatalf("warm run misses = %d, want exactly the previously-degraded file", diag.CacheMisses)
	}
	if diag.CacheHits != uint64(len(tree.Files)-1) {
		t.Fatalf("warm run hits = %d, want %d", diag.CacheHits, len(tree.Files)-1)
	}
}

func TestExtractCancellationMidPool(t *testing.T) {
	spec := langgen.DefaultSpec()
	spec.Files = 8
	tree := langgen.Generate(spec)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	setHook(t, func(metrics.File) { once.Do(cancel) })

	fv, diag, err := ExtractFeaturesDiagnostics(ctx, tree, ExtractConfig{Jobs: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if fv != nil || diag != nil {
		t.Fatal("canceled run returned a partial vector")
	}
}

func TestExtractPreCanceledContext(t *testing.T) {
	spec := langgen.DefaultSpec()
	spec.Files = 2
	tree := langgen.Generate(spec)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	setHook(t, func(metrics.File) { ran = true })
	if _, _, err := ExtractFeaturesDiagnostics(ctx, tree, ExtractConfig{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("pre-canceled context still dispatched deep analyses")
	}
}

// TestFileTimeoutDegradesToBaseMetrics: a stalled deep analysis misses the
// per-file deadline, the file degrades to a zero enrichment with a
// StatusTimeout diagnostic, and the run still yields a complete vector.
func TestFileTimeoutDegradesToBaseMetrics(t *testing.T) {
	spec := langgen.DefaultSpec()
	spec.Files = 3
	tree := langgen.Generate(spec)
	victim := tree.Files[0].Path
	stalled := make(chan struct{})
	setHook(t, func(f metrics.File) {
		if f.Path == victim {
			time.Sleep(500 * time.Millisecond)
			close(stalled)
		}
	})
	// The stalled analysis outlives its deadline on its own goroutine, which
	// read the hook; wait for it before setHook's cleanup resets the hook.
	t.Cleanup(func() {
		select {
		case <-stalled:
		case <-time.After(10 * time.Second):
		}
	})

	fv, diag, err := ExtractFeaturesDiagnostics(context.Background(), tree,
		ExtractConfig{Jobs: 2, FileTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	assertFinite(t, fv)
	got := diag.Files[0]
	if got.Status != StatusTimeout || got.Path != victim {
		t.Fatalf("victim diagnostic = %+v, want %s with status %s", got, victim, StatusTimeout)
	}
	assertLintCount(t, fv, tree)
	if !strings.Contains(got.Detail, "exceeded") {
		t.Fatalf("timeout detail = %q", got.Detail)
	}
	if deg := diag.Degraded(); len(deg) == 0 || deg[0].Path != victim {
		t.Fatalf("Degraded() = %+v, want %s first", deg, victim)
	}
}

func TestFileTimeoutGenerousMatchesUnbounded(t *testing.T) {
	spec := langgen.DefaultSpec()
	spec.Files = 3
	tree := langgen.Generate(spec)
	base := ExtractFeatures(tree)
	fv, diag, err := ExtractFeaturesDiagnostics(context.Background(), tree,
		ExtractConfig{FileTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if !diag.Clean() {
		t.Fatalf("generous deadline still degraded files: %+v", diag.Degraded())
	}
	for _, n := range metrics.FeatureNames {
		if fv[n] != base[n] {
			t.Fatalf("bounded run drifted on %s: %v vs %v", n, fv[n], base[n])
		}
	}
}

// TestDiagnosticsCountsMatchStatuses: the Counts tally, the per-file list,
// and the rendered summary must agree, including the parse-skip of a C file
// that is not MiniC.
func TestDiagnosticsCountsMatchStatuses(t *testing.T) {
	tree := metrics.NewTree("mixed",
		metrics.File{Path: "good.mc", Content: "int main(void) { return 0; }\n"},
		metrics.File{Path: "bad.c", Content: "int main( { this does not parse\n"},
	)
	_, diag, err := ExtractFeaturesDiagnostics(context.Background(), tree, ExtractConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(diag.Files) != len(tree.Files) {
		t.Fatalf("diagnostics cover %d files, tree has %d", len(diag.Files), len(tree.Files))
	}
	counts := diag.Counts()
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != len(diag.Files) {
		t.Fatalf("Counts() sums to %d, want %d", total, len(diag.Files))
	}
	if counts[StatusParseSkip] != 1 {
		t.Fatalf("parse-skip count = %d, want 1 (bad.c)", counts[StatusParseSkip])
	}
	if !diag.Clean() {
		t.Fatal("parse-skip is a normal outcome, not a degradation")
	}
	rendered := diag.String()
	if !strings.Contains(rendered, "bad.c") || !strings.Contains(rendered, string(StatusParseSkip)) {
		t.Fatalf("rendered diagnostics omit the skipped file:\n%s", rendered)
	}
}

func TestDiagnosticsCacheHitStatuses(t *testing.T) {
	spec := langgen.DefaultSpec()
	spec.Files = 3
	tree := langgen.Generate(spec)
	cache, err := featcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := ExtractConfig{Cache: cache}

	_, cold, err := ExtractFeaturesDiagnostics(context.Background(), tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheMisses != uint64(len(tree.Files)) || cold.CacheHits != 0 {
		t.Fatalf("cold run: %d hits / %d misses, want 0 / %d", cold.CacheHits, cold.CacheMisses, len(tree.Files))
	}

	_, warm, err := ExtractFeaturesDiagnostics(context.Background(), tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheHits != uint64(len(tree.Files)) || warm.CacheMisses != 0 {
		t.Fatalf("warm run: %d hits / %d misses, want %d / 0", warm.CacheHits, warm.CacheMisses, len(tree.Files))
	}
	if warm.Counts()[StatusCacheHit] != len(tree.Files) {
		t.Fatalf("warm statuses = %v, want all %s", warm.Counts(), StatusCacheHit)
	}
}

// TestExtractEmptyTreeFiniteFeatures guards the satellite fix for the
// AnalyzeTree/AnalyzeDir asymmetry: the core extractor accepts an empty tree
// (the facade rejects it) and its averages must not divide by zero.
func TestExtractEmptyTreeFiniteFeatures(t *testing.T) {
	fv, diag, err := ExtractFeaturesDiagnostics(context.Background(), metrics.NewTree("empty"), ExtractConfig{})
	if err != nil {
		t.Fatal(err)
	}
	assertFinite(t, fv)
	if len(diag.Files) != 0 {
		t.Fatalf("empty tree produced %d file diagnostics", len(diag.Files))
	}
}

func TestTrainCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Train(ctx, NewTestbed(getCorpus(t)), TrainConfig{Kind: KindLogistic, Folds: 2, Seed: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRegressionDatasetZeroVulnCorpus is the satellite fix for the -Inf
// regression targets: a zero-vulnerability application (legal in imported
// corpora) must map to target 0 under log10(1+count), never -Inf.
func TestRegressionDatasetZeroVulnCorpus(t *testing.T) {
	base := getCorpus(t)
	apps := append([]corpus.AppProfile(nil), base.Apps...)
	apps[0].VulnCount = 0
	c := &corpus.Corpus{Params: base.Params, DB: base.DB, Apps: apps}

	ds, err := NewTestbed(c).RegressionDataset()
	if err != nil {
		t.Fatal(err)
	}
	for i, y := range ds.Y {
		if math.IsInf(y, 0) || math.IsNaN(y) {
			t.Fatalf("target %d = %v (VulnCount %d)", i, y, apps[i].VulnCount)
		}
	}
	if ds.Y[0] != 0 {
		t.Fatalf("zero-vuln target = %v, want 0", ds.Y[0])
	}
	// The transform must round-trip through the Score inverse 10^x - 1.
	if got := math.Pow(10, ds.Y[0]) - 1; got != 0 {
		t.Fatalf("inverse of zero target = %v", got)
	}
}

// TestDatasetForCorruptedCorpusErrors is the satellite fix for silent false
// labels: an application profile with no CVE records behind it must fail
// dataset construction loudly, not train on a poisoned negative label.
func TestDatasetForCorruptedCorpusErrors(t *testing.T) {
	base := getCorpus(t)
	apps := append([]corpus.AppProfile(nil), base.Apps...)
	ghost := apps[0]
	ghost.App.Name = "no-such-app-record"
	apps = append(apps, ghost)
	tb := NewTestbed(&corpus.Corpus{Params: base.Params, DB: base.DB, Apps: apps})

	_, err := tb.DatasetFor(HypHighSeverity)
	if err == nil {
		t.Fatal("corrupted corpus produced a dataset")
	}
	if !strings.Contains(err.Error(), "corrupted corpus") || !strings.Contains(err.Error(), "no-such-app-record") {
		t.Fatalf("err = %v, want corrupted-corpus error naming the app", err)
	}

	// HypManyVulns labels from VulnCount alone, so it must still succeed.
	if _, err := tb.DatasetFor(HypManyVulns); err != nil {
		t.Fatalf("HypManyVulns on the same corpus: %v", err)
	}
}

// TestParallelForCtxUsedByExtract pins the pool semantics the extractor
// relies on: with a canceled context mid-pool, ml.ParallelForCtx reports
// ctx.Err() unless a real fn error at a lower index beats it.
func TestParallelForCtxUsedByExtract(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := ml.ParallelForCtx(ctx, 50, 4, func(i int) error {
		if i == 0 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
