package secmetric

// The benchmark harness: one benchmark per figure and table in the paper's
// evaluation, plus the ablations DESIGN.md calls out. Each benchmark prints
// the regenerated artifact once (the rows/series the paper reports) and
// then times the underlying computation; `go test -bench=. -benchmem`
// regenerates everything.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/experiments"
	"repro/internal/langgen"
	"repro/internal/survey"
)

// printOnce gates the table output so repeated benchmark iterations do not
// spam the log.
var printOnce sync.Map

func printTable(name, table string) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		fmt.Printf("\n===== %s =====\n%s\n", name, table)
	}
}

// BenchmarkFigure1Survey regenerates the evaluation-method survey.
func BenchmarkFigure1Survey(b *testing.B) {
	r := experiments.Figure1()
	printTable("Figure 1", r.Table)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		papers := survey.GenerateCorpus(1)
		counts := survey.Run(papers)
		if counts.Total(survey.MethodLoC) != survey.TotalLoC {
			b.Fatal("survey totals drifted")
		}
	}
}

// BenchmarkFigure2LoC regenerates the LoC-vs-vulnerabilities regression.
func BenchmarkFigure2LoC(b *testing.B) {
	r, err := experiments.Figure2()
	if err != nil {
		b.Fatal(err)
	}
	printTable("Figure 2", r.Table)
	b.ReportMetric(r.Fit.Slope, "slope")
	b.ReportMetric(r.Fit.R2*100, "R2pct")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := corpus.Generate(corpus.DefaultParams()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3Cyclomatic regenerates the cyclomatic-complexity scatter.
func BenchmarkFigure3Cyclomatic(b *testing.B) {
	r, err := experiments.Figure3()
	if err != nil {
		b.Fatal(err)
	}
	printTable("Figure 3", r.Table)
	b.ReportMetric(r.Fit.R2*100, "R2pct")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r2, err := experiments.Figure3()
		if err != nil {
			b.Fatal(err)
		}
		if r2.Fit.R2 <= 0 {
			b.Fatal("correlation lost")
		}
	}
}

// BenchmarkFigure4Training regenerates the pipeline evaluation (train +
// 10-fold CV per hypothesis) — the paper's Figure 4 turned into numbers.
func BenchmarkFigure4Training(b *testing.B) {
	r, err := experiments.Figure4(core.KindForest, 10, 42)
	if err != nil {
		b.Fatal(err)
	}
	printTable("Figure 4", r.Table)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure4(core.KindLogistic, 5, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1CorpusStats regenerates the §5.1 corpus statistics.
func BenchmarkTable1CorpusStats(b *testing.B) {
	r, err := experiments.Table1()
	if err != nil {
		b.Fatal(err)
	}
	printTable("Table 1 (§5.1 in-text)", r.Table)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2ShinReplication regenerates the §4 vulnerable-file
// prediction replication.
func BenchmarkTable2ShinReplication(b *testing.B) {
	r, err := experiments.Table2(150, 7)
	if err != nil {
		b.Fatal(err)
	}
	printTable("Table 2 (§4 in-text, Shin et al.)", r.Table)
	b.ReportMetric(r.Recall, "recall")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(60, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationLoCOnly times the full-vs-LoC-only comparison.
func BenchmarkAblationLoCOnly(b *testing.B) {
	r, err := experiments.AblationLoCOnly(3)
	if err != nil {
		b.Fatal(err)
	}
	printTable("Ablation A1", r.Table)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationLoCOnly(uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationClassifiers compares the classifier families.
func BenchmarkAblationClassifiers(b *testing.B) {
	r, err := experiments.AblationClassifiers(5)
	if err != nil {
		b.Fatal(err)
	}
	printTable("Ablation A2", r.Table)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationClassifiers(uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationFeatureSelection sweeps the info-gain filter.
func BenchmarkAblationFeatureSelection(b *testing.B) {
	r, err := experiments.AblationFeatureSelection(11)
	if err != nil {
		b.Fatal(err)
	}
	printTable("Ablation A3", r.Table)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationFeatureSelection(uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSymexecBound sweeps the symbolic-execution loop bound.
func BenchmarkAblationSymexecBound(b *testing.B) {
	r, err := experiments.AblationSymexecBound(13)
	if err != nil {
		b.Fatal(err)
	}
	printTable("Ablation A4", r.Table)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationSymexecBound(13); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegressionCount evaluates the vulnerability-count regressor.
func BenchmarkRegressionCount(b *testing.B) {
	r, err := experiments.Regression(17)
	if err != nil {
		b.Fatal(err)
	}
	printTable("Count regression", r.Table)
	b.ReportMetric(r.FullR2, "fullR2")
	b.ReportMetric(r.LoCR2, "locR2")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Regression(uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTestbedExtraction times the end-to-end feature extraction over a
// generated source tree — the per-commit cost a developer pays in §5.3.
func BenchmarkTestbedExtraction(b *testing.B) {
	spec := langgen.DefaultSpec()
	spec.Files = 8
	spec.FuncsPerFile = 10
	tree := langgen.Generate(spec)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fv := AnalyzeTree(tree)
		if fv["kloc"] <= 0 {
			b.Fatal("extraction failed")
		}
	}
}

// BenchmarkAnalyzeDirWarmCache times AnalyzeDir with a warm feature cache
// — the steady-state per-commit cost when no file changed — and reports
// the cold-over-warm speedup.
func BenchmarkAnalyzeDirWarmCache(b *testing.B) {
	spec := langgen.DefaultSpec()
	spec.Files = 8
	spec.FuncsPerFile = 10
	tree := langgen.Generate(spec)
	dir := b.TempDir()
	for _, f := range tree.Files {
		p := filepath.Join(dir, filepath.FromSlash(f.Path))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(f.Content), 0o644); err != nil {
			b.Fatal(err)
		}
	}
	cfg := AnalyzeConfig{CacheDir: filepath.Join(b.TempDir(), "featcache")}
	start := time.Now()
	if _, _, err := AnalyzeDirWithDiagnostics(context.Background(), dir, cfg); err != nil {
		b.Fatal(err)
	}
	coldDur := time.Since(start)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fv, _, err := AnalyzeDirWithDiagnostics(context.Background(), dir, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if fv["kloc"] <= 0 {
			b.Fatal("extraction failed")
		}
	}
	if b.Elapsed() > 0 {
		b.ReportMetric(coldDur.Seconds()/(b.Elapsed().Seconds()/float64(b.N)), "cold/warm")
	}
}

// BenchmarkScore times a single model scoring call (the interactive path).
func BenchmarkScore(b *testing.B) {
	c, err := experiments.Corpus()
	if err != nil {
		b.Fatal(err)
	}
	model, err := Train(c, TrainConfig{Kind: KindLogistic, Folds: 3, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	fv := c.Apps[0].Features
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := model.Score("bench", fv)
		if rep.RiskScore < 0 {
			b.Fatal("bad score")
		}
	}
}
