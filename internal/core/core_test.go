package core

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/langgen"
	"repro/internal/metrics"
	"repro/internal/stats"
)

var (
	corpusOnce sync.Once
	testCorpus *corpus.Corpus
)

func getCorpus(t *testing.T) *corpus.Corpus {
	t.Helper()
	corpusOnce.Do(func() {
		c, err := corpus.Generate(corpus.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		testCorpus = c
	})
	return testCorpus
}

func TestDatasetForShape(t *testing.T) {
	tb := NewTestbed(getCorpus(t))
	ds, err := tb.DatasetFor(HypHighSeverity)
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != 164 {
		t.Fatalf("rows = %d", ds.N())
	}
	if ds.P() != len(metrics.FeatureNames) {
		t.Fatalf("cols = %d", ds.P())
	}
	counts := ds.ClassCounts()
	if counts[0] == 0 || counts[1] == 0 {
		t.Fatalf("degenerate labels: %v", counts)
	}
}

func TestDatasetManyVulnsMedianSplit(t *testing.T) {
	tb := NewTestbed(getCorpus(t))
	ds, err := tb.DatasetFor(HypManyVulns)
	if err != nil {
		t.Fatal(err)
	}
	counts := ds.ClassCounts()
	// A median split is roughly balanced.
	if counts[1] < 40 || counts[1] > 124 {
		t.Fatalf("median split unbalanced: %v", counts)
	}
}

func TestTransformAppliesLog(t *testing.T) {
	tb := NewTestbed(getCorpus(t))
	fv := metrics.FeatureVector{}
	for _, n := range metrics.FeatureNames {
		fv[n] = 0
	}
	fv[metrics.FeatKLoC] = 999 // log10(1+999) = 3
	row := tb.Transform(fv)
	idx := -1
	for i, n := range metrics.FeatureNames {
		if n == metrics.FeatKLoC {
			idx = i
		}
	}
	if row[idx] != 3 {
		t.Fatalf("kloc transformed to %v, want 3", row[idx])
	}
	// comment_ratio is not log-transformed.
	fv[metrics.FeatCommentRatio] = 0.5
	row = tb.Transform(fv)
	for i, n := range metrics.FeatureNames {
		if n == metrics.FeatCommentRatio && row[i] != 0.5 {
			t.Fatalf("comment_ratio transformed to %v", row[i])
		}
	}
}

func TestTrainHypothesisBeatsBaseline(t *testing.T) {
	tb := NewTestbed(getCorpus(t))
	rng := stats.NewRNG(3)
	cfg := TrainConfig{Kind: KindForest, Folds: 5, Seed: 3}
	hm, err := TrainHypothesis(tb, HypManyVulns, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	baseAcc := hm.BaseRate
	if baseAcc < 0.5 {
		baseAcc = 1 - baseAcc
	}
	if hm.CV.Accuracy <= baseAcc {
		t.Fatalf("forest CV accuracy %.3f does not beat majority baseline %.3f",
			hm.CV.Accuracy, baseAcc)
	}
	if hm.CV.AUC < 0.6 {
		t.Fatalf("AUC = %v", hm.CV.AUC)
	}
}

func TestTrainFullModel(t *testing.T) {
	tb := NewTestbed(getCorpus(t))
	cfg := TrainConfig{Kind: KindLogistic, Folds: 5, Seed: 9}
	m, err := Train(context.Background(), tb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Hypotheses) != 5 {
		t.Fatalf("hypotheses = %d", len(m.Hypotheses))
	}
	if m.CountModel == nil {
		t.Fatal("count model missing")
	}
	if m.CountEval.R2 <= 0.2 {
		t.Fatalf("count regression R2 = %v; multi-feature regression should beat the Figure 2 single-feature fit", m.CountEval.R2)
	}
}

func TestFeatureSelectionKeepsAccuracy(t *testing.T) {
	tb := NewTestbed(getCorpus(t))
	rng := stats.NewRNG(5)
	full, err := TrainHypothesis(tb, HypManyVulns, TrainConfig{Kind: KindNaiveBayes, Folds: 5}, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	selected, err := TrainHypothesis(tb, HypManyVulns, TrainConfig{Kind: KindNaiveBayes, Folds: 5, TopFeatures: 10}, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	if len(selected.Features) != 10 {
		t.Fatalf("selected features = %d", len(selected.Features))
	}
	if selected.CV.Accuracy < full.CV.Accuracy-0.1 {
		t.Fatalf("feature selection collapsed accuracy: %.3f vs %.3f",
			selected.CV.Accuracy, full.CV.Accuracy)
	}
}

func TestScoreReport(t *testing.T) {
	tb := NewTestbed(getCorpus(t))
	m, err := Train(context.Background(), tb, TrainConfig{Kind: KindLogistic, Folds: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Score a known vulnerable-looking corpus app (unsafe C, many vulns).
	var risky, safe *corpus.AppProfile
	for i := range testCorpus.Apps {
		a := &testCorpus.Apps[i]
		if risky == nil || a.VulnCount > risky.VulnCount {
			risky = a
		}
		if safe == nil || a.VulnCount < safe.VulnCount {
			safe = a
		}
	}
	riskyRep := m.Score(risky.App.Name, risky.Features)
	safeRep := m.Score(safe.App.Name, safe.Features)
	if riskyRep.RiskScore <= safeRep.RiskScore {
		t.Fatalf("risk ordering wrong: %s=%.1f vs %s=%.1f (vulns %d vs %d)",
			risky.App.Name, riskyRep.RiskScore, safe.App.Name, safeRep.RiskScore,
			risky.VulnCount, safe.VulnCount)
	}
	if riskyRep.ExpectedVulns <= safeRep.ExpectedVulns {
		t.Fatalf("expected-vuln ordering wrong: %.1f vs %.1f",
			riskyRep.ExpectedVulns, safeRep.ExpectedVulns)
	}
	out := riskyRep.String()
	if !strings.Contains(out, "risk score") && !strings.Contains(out, "Aggregate") {
		t.Fatalf("report rendering: %q", out)
	}
}

func TestCompareVersions(t *testing.T) {
	tb := NewTestbed(getCorpus(t))
	m, err := Train(context.Background(), tb, TrainConfig{Kind: KindLogistic, Folds: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	old := testCorpus.Apps[0].Features.Clone()
	newer := old.Clone()
	// The "change" adds a pile of unsafe calls and tainted flows.
	newer[metrics.FeatUnsafeCalls] = old[metrics.FeatUnsafeCalls]*4 + 500
	newer[metrics.FeatTaintedSinks] = old[metrics.FeatTaintedSinks]*4 + 200
	newer[metrics.FeatLintWarnings] = old[metrics.FeatLintWarnings]*2 + 300
	cmp := m.Compare("v1", old, "v2", newer)
	if cmp.DeltaRisk <= 0 {
		t.Fatalf("adding unsafe code lowered risk: %+v", cmp.Verdict())
	}
	if len(cmp.FeatureDeltas) == 0 {
		t.Fatal("no feature deltas reported")
	}
	found := false
	for _, d := range cmp.FeatureDeltas {
		if d.Name == metrics.FeatUnsafeCalls {
			found = true
		}
	}
	if !found {
		t.Fatalf("unsafe_calls delta not reported: %+v", cmp.FeatureDeltas)
	}
	if !strings.Contains(cmp.String(), "RISK UP") {
		t.Fatalf("verdict = %q", cmp.Verdict())
	}
}

func TestExtractFeaturesEndToEnd(t *testing.T) {
	spec := langgen.DefaultSpec()
	spec.VulnDensity = 1
	spec.Seed = 99
	tree := langgen.Generate(spec)
	fv := ExtractFeatures(tree)
	if fv[metrics.FeatKLoC] <= 0 {
		t.Fatal("kloc missing")
	}
	if fv[metrics.FeatTaintedSinks] == 0 {
		t.Fatal("taint enrichment missing on fully-injected tree")
	}
	if fv[metrics.FeatLintWarnings] == 0 {
		t.Fatal("lint enrichment missing")
	}
	if fv[metrics.FeatFeasiblePaths] <= 0 {
		t.Fatal("symexec enrichment missing")
	}
	if fv[metrics.FeatCallDepth] < 1 {
		t.Fatal("call-graph enrichment missing")
	}
	if fv[metrics.FeatDynBranchCov] <= 0 || fv[metrics.FeatDynBranchCov] > 1 {
		t.Fatalf("dynamic branch coverage = %v", fv[metrics.FeatDynBranchCov])
	}
	if fv[metrics.FeatDynUniquePaths] <= 0 {
		t.Fatal("dynamic path diversity missing")
	}
}

func TestExtractFeaturesCleanTree(t *testing.T) {
	spec := langgen.DefaultSpec()
	spec.VulnDensity = 0
	spec.Seed = 100
	dirty := langgen.Generate(langgen.Spec{
		Language: spec.Language, Files: spec.Files, FuncsPerFile: spec.FuncsPerFile,
		StmtsPerFunc: spec.StmtsPerFunc, BranchProb: spec.BranchProb,
		LoopProb: spec.LoopProb, CallProb: spec.CallProb, CommentRate: spec.CommentRate,
		VulnDensity: 1, Seed: 100,
	})
	clean := langgen.Generate(spec)
	cleanFV := ExtractFeatures(clean)
	dirtyFV := ExtractFeatures(dirty)
	if dirtyFV[metrics.FeatTaintedSinks] <= cleanFV[metrics.FeatTaintedSinks] {
		t.Fatalf("taint feature does not separate: clean=%v dirty=%v",
			cleanFV[metrics.FeatTaintedSinks], dirtyFV[metrics.FeatTaintedSinks])
	}
}

func TestNewClassifierKinds(t *testing.T) {
	for _, k := range AllKinds {
		c, err := NewClassifier(k)
		if err != nil || c == nil {
			t.Fatalf("kind %s: %v", k, err)
		}
	}
	if _, err := NewClassifier("bogus"); err == nil {
		t.Fatal("bogus kind accepted")
	}
}

func TestPredictionBandOrdering(t *testing.T) {
	tb := NewTestbed(getCorpus(t))
	m, err := Train(context.Background(), tb, TrainConfig{Kind: KindLogistic, Folds: 3, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range testCorpus.Apps[:20] {
		rep := m.Score(a.App.Name, a.Features)
		if !(rep.ExpectedVulnsLo <= rep.ExpectedVulns && rep.ExpectedVulns <= rep.ExpectedVulnsHi) {
			t.Fatalf("%s band out of order: %v %v %v", a.App.Name,
				rep.ExpectedVulnsLo, rep.ExpectedVulns, rep.ExpectedVulnsHi)
		}
		// log10(1+x) targets invert to 10^x - 1, so a very safe app's
		// lower band legitimately touches zero.
		if rep.ExpectedVulnsLo < 0 {
			t.Fatalf("%s band lower bound = %v", a.App.Name, rep.ExpectedVulnsLo)
		}
	}
	// The band must contain the true count for the large majority of apps
	// (it is a 90% band measured in-sample).
	inside := 0
	for _, a := range testCorpus.Apps {
		rep := m.Score(a.App.Name, a.Features)
		v := float64(a.VulnCount)
		if v >= rep.ExpectedVulnsLo && v <= rep.ExpectedVulnsHi {
			inside++
		}
	}
	frac := float64(inside) / float64(len(testCorpus.Apps))
	if frac < 0.75 {
		t.Fatalf("band coverage = %v, want >= 0.75", frac)
	}
}
