package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/langgen"
	"repro/internal/ml"
	"repro/internal/stats"
	"repro/internal/symexec"
)

// AblationLoCOnly quantifies the paper's central claim hypothesis by
// hypothesis: full feature vector vs. kLoC alone, same classifier.
type AblationLoCOnlyResult struct {
	Rows  []HypothesisRow // reuses Figure 4's row shape
	Table string
}

// AblationLoCOnly runs the comparison with the default forest.
func AblationLoCOnly(seed uint64) (AblationLoCOnlyResult, error) {
	f4, err := Figure4(core.KindForest, 10, seed)
	if err != nil {
		return AblationLoCOnlyResult{}, err
	}
	var sb strings.Builder
	sb.WriteString("Ablation A1: full feature vector vs. LoC-only (random forest, 10-fold CV)\n")
	fmt.Fprintf(&sb, "%-14s %8s %8s %8s %8s\n", "hypothesis", "full-auc", "loc-auc", "full-acc", "loc-acc")
	for _, r := range f4.Rows {
		fmt.Fprintf(&sb, "%-14s %8.3f %8.3f %8.3f %8.3f\n",
			r.Hypothesis, r.AUC, r.LoCOnlyAUC, r.Accuracy, r.LoCOnlyAccuracy)
	}
	return AblationLoCOnlyResult{Rows: f4.Rows, Table: sb.String()}, nil
}

// AblationClassifiers compares every classifier family on one hypothesis.
type ClassifierRow struct {
	Kind     core.ModelKind
	Accuracy float64
	AUC      float64
	F1       float64
}

// AblationClassifiersResult carries the family comparison.
type AblationClassifiersResult struct {
	Hypothesis string
	Rows       []ClassifierRow
	Table      string
}

// AblationClassifiers cross-validates every family on HypManyVulns.
func AblationClassifiers(seed uint64) (AblationClassifiersResult, error) {
	c, err := Corpus()
	if err != nil {
		return AblationClassifiersResult{}, err
	}
	tb := core.NewTestbed(c)
	ds, err := tb.DatasetFor(core.HypManyVulns)
	if err != nil {
		return AblationClassifiersResult{}, err
	}
	rng := stats.NewRNG(seed)
	res := AblationClassifiersResult{Hypothesis: core.HypManyVulns.Name}
	for _, kind := range core.AllKinds {
		cv, err := crossValidateKind(kind, ds, 10, rng.Split())
		if err != nil {
			return AblationClassifiersResult{}, err
		}
		res.Rows = append(res.Rows, ClassifierRow{
			Kind: kind, Accuracy: cv.Accuracy, AUC: cv.AUC, F1: cv.F1,
		})
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Ablation A2: classifier families on %q (10-fold CV)\n", res.Hypothesis)
	fmt.Fprintf(&sb, "%-12s %8s %8s %8s\n", "kind", "acc", "auc", "f1")
	for _, r := range res.Rows {
		fmt.Fprintf(&sb, "%-12s %8.3f %8.3f %8.3f\n", r.Kind, r.Accuracy, r.AUC, r.F1)
	}
	res.Table = sb.String()
	return res, nil
}

// AblationFeatureSelection sweeps the information-gain top-k filter.
type FeatureSelRow struct {
	TopK     int
	Accuracy float64
	AUC      float64
}

// AblationFeatureSelectionResult carries the sweep.
type AblationFeatureSelectionResult struct {
	Rows  []FeatureSelRow
	Table string
}

// AblationFeatureSelection sweeps k over the naive Bayes model, where
// irrelevant features hurt most.
func AblationFeatureSelection(seed uint64) (AblationFeatureSelectionResult, error) {
	c, err := Corpus()
	if err != nil {
		return AblationFeatureSelectionResult{}, err
	}
	tb := core.NewTestbed(c)
	rng := stats.NewRNG(seed)
	var res AblationFeatureSelectionResult
	for _, k := range []int{0, 3, 5, 10, 20} {
		cfg := core.TrainConfig{Kind: core.KindNaiveBayes, Folds: 10, TopFeatures: k, Seed: seed}
		hm, err := core.TrainHypothesis(tb, core.HypManyVulns, cfg, rng.Split())
		if err != nil {
			return AblationFeatureSelectionResult{}, err
		}
		res.Rows = append(res.Rows, FeatureSelRow{TopK: k, Accuracy: hm.CV.Accuracy, AUC: hm.CV.AUC})
	}
	var sb strings.Builder
	sb.WriteString("Ablation A3: information-gain feature selection (naive Bayes, 10-fold CV)\n")
	fmt.Fprintf(&sb, "%-8s %8s %8s\n", "top-k", "acc", "auc")
	for _, r := range res.Rows {
		label := fmt.Sprintf("%d", r.TopK)
		if r.TopK == 0 {
			label = "all"
		}
		fmt.Fprintf(&sb, "%-8s %8.3f %8.3f\n", label, r.Accuracy, r.AUC)
	}
	res.Table = sb.String()
	return res, nil
}

// AblationSymexecBound sweeps the symbolic executor's loop bound against
// path yield and truncation, the precision/cost trade DESIGN.md calls out.
type SymexecRow struct {
	LoopBound int
	Feasible  int
	Truncated int
	Models    float64
}

// AblationSymexecBoundResult carries the sweep.
type AblationSymexecBoundResult struct {
	Rows  []SymexecRow
	Table string
}

// AblationSymexecBound explores a generated program under varying bounds.
func AblationSymexecBound(seed uint64) (AblationSymexecBoundResult, error) {
	spec := langgen.DefaultSpec()
	spec.Seed = seed
	spec.Files = 2
	spec.LoopProb = 0.3
	tree := langgen.Generate(spec)
	var progs []*ir.Program
	for _, f := range tree.Files {
		_, p, err := ir.Parse(f.Content)
		if err != nil {
			return AblationSymexecBoundResult{}, err
		}
		progs = append(progs, p)
	}
	var res AblationSymexecBoundResult
	for _, bound := range []int{1, 2, 3, 5, 8} {
		row := SymexecRow{LoopBound: bound}
		for _, p := range progs {
			for _, fn := range p.Funcs {
				r := symexec.Explore(fn, bound)
				row.Feasible += r.FeasiblePaths
				row.Truncated += r.TruncatedPaths
				row.Models += r.ModelCount
			}
		}
		res.Rows = append(res.Rows, row)
	}
	var sb strings.Builder
	sb.WriteString("Ablation A4: symbolic-execution loop bound vs. path yield\n")
	fmt.Fprintf(&sb, "%-10s %10s %10s %14s\n", "loopbound", "feasible", "truncated", "models")
	for _, r := range res.Rows {
		fmt.Fprintf(&sb, "%-10d %10d %10d %14.0f\n", r.LoopBound, r.Feasible, r.Truncated, r.Models)
	}
	res.Table = sb.String()
	return res, nil
}

// CrossValidateRegression evaluates the vulnerability-count regressor with
// held-out folds, reporting out-of-sample R² for the full feature set and
// for kLoC alone (the Figure 2 straw man).
type RegressionResult struct {
	FullR2 float64
	LoCR2  float64
	Table  string
}

// Regression runs the count-model comparison.
func Regression(seed uint64) (RegressionResult, error) {
	c, err := Corpus()
	if err != nil {
		return RegressionResult{}, err
	}
	tb := core.NewTestbed(c)
	ds, err := tb.RegressionDataset()
	if err != nil {
		return RegressionResult{}, err
	}
	rng := stats.NewRNG(seed)
	full := regressionCVR2(ds, rng.Split())
	locIdx := -1
	for i, n := range ds.AttrNames {
		if n == "kloc" {
			locIdx = i
		}
	}
	loc := regressionCVR2(ml.ProjectColumns(ds, []int{locIdx}), rng.Split())
	res := RegressionResult{FullR2: full, LoCR2: loc}
	var sb strings.Builder
	sb.WriteString("Vulnerability-count regression (ridge, 5-fold out-of-sample R^2)\n")
	fmt.Fprintf(&sb, "  full feature vector  R^2 = %.3f\n", res.FullR2)
	fmt.Fprintf(&sb, "  kLoC alone           R^2 = %.3f  (Figure 2's in-sample fit: 0.247)\n", res.LoCR2)
	res.Table = sb.String()
	return res, nil
}

// regressionCVR2 computes pooled out-of-sample R² over 5 folds.
func regressionCVR2(ds *ml.Dataset, rng *stats.RNG) float64 {
	folds := ds.Folds(5, rng)
	var preds, actual []float64
	for fi := range folds {
		var trainIdx []int
		for fj := range folds {
			if fj != fi {
				trainIdx = append(trainIdx, folds[fj]...)
			}
		}
		train := ds.Subset(trainIdx)
		test := ds.Subset(folds[fi])
		lr := &ml.LinearRegressor{Lambda: 1.0}
		if err := lr.Fit(train); err != nil {
			continue
		}
		for i, row := range test.X {
			preds = append(preds, lr.Predict(row))
			actual = append(actual, test.Y[i])
		}
	}
	if len(actual) == 0 {
		return 0
	}
	my := stats.Mean(actual)
	var ssRes, ssTot float64
	for i := range actual {
		ssRes += (actual[i] - preds[i]) * (actual[i] - preds[i])
		ssTot += (actual[i] - my) * (actual[i] - my)
	}
	if ssTot == 0 {
		return 0
	}
	return 1 - ssRes/ssTot
}
