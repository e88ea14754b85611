package core

import (
	"context"
	"fmt"

	"repro/internal/metrics"
	"repro/internal/ml"
	"repro/internal/stats"
	"repro/internal/trace"
)

// ModelKind selects a classifier family.
type ModelKind string

// Available kinds.
const (
	KindZeroR      ModelKind = "zeror"
	KindNaiveBayes ModelKind = "naivebayes"
	KindLogistic   ModelKind = "logistic"
	KindTree       ModelKind = "tree"
	KindForest     ModelKind = "forest"
	KindKNN        ModelKind = "knn"
	KindBoost      ModelKind = "boost"
)

// AllKinds lists every classifier family, baseline first.
var AllKinds = []ModelKind{KindZeroR, KindNaiveBayes, KindLogistic, KindTree, KindForest, KindKNN, KindBoost}

// NewClassifier constructs a fresh classifier of the kind.
func NewClassifier(kind ModelKind) (ml.Classifier, error) {
	switch kind {
	case KindZeroR:
		return &ml.ZeroR{}, nil
	case KindNaiveBayes:
		return &ml.GaussianNB{}, nil
	case KindLogistic:
		return &ml.Logistic{}, nil
	case KindTree:
		return &ml.DecisionTree{}, nil
	case KindForest:
		return &ml.RandomForest{Trees: 30, Seed: 7}, nil
	case KindKNN:
		return &ml.KNN{K: 7}, nil
	case KindBoost:
		return &ml.AdaBoost{Rounds: 40, Seed: 7}, nil
	default:
		return nil, fmt.Errorf("core: unknown model kind %q", kind)
	}
}

// TrainConfig controls training.
type TrainConfig struct {
	Kind ModelKind
	// Folds for cross validation (Figure 4's "with cross validation").
	Folds int
	// TopFeatures, when > 0, keeps only the highest-information-gain
	// features before training.
	TopFeatures int
	Seed        uint64
	// Jobs bounds the training worker pools (hypothesis fan-out, CV folds,
	// forest trees); <= 0 uses every core. The trained model is
	// bit-identical for any Jobs value: all seed-derived randomness is
	// consumed in a fixed order before any fan-out.
	Jobs int
}

// DefaultTrainConfig mirrors Weka defaults: 10-fold CV, random forest.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Kind: KindForest, Folds: 10, Seed: 17}
}

// HypothesisModel is one trained hypothesis classifier plus its evaluation.
type HypothesisModel struct {
	Hypothesis Hypothesis
	Kind       ModelKind
	Classifier ml.Classifier
	CV         *ml.CVResult
	// Features are the attribute names the classifier consumes, in column
	// order (after any feature selection).
	Features []string
	// Importance ranks features by information gain against this
	// hypothesis' labels — "each weight shows the importance of the
	// corresponding code property" (§5.3).
	Importance []ml.FeatureWeight
	// BaseRate is the positive-class frequency, the ZeroR yardstick.
	BaseRate float64
}

// Model is the full trained artifact: one classifier per hypothesis plus
// the vulnerability-count regressor.
type Model struct {
	Config     TrainConfig
	Hypotheses []*HypothesisModel
	// CountModel predicts log10(#vulns).
	CountModel *ml.LinearRegressor
	CountEval  ml.RegressionMetrics
	// CountResidualStd is the training residual standard deviation in
	// log10 space; Score turns it into a ~90% prediction band.
	CountResidualStd float64
	// Transformer is retained for the feature transformation at predict
	// time; it is all a deployed model needs from the testbed.
	Transformer *Transformer
}

// Train runs the Figure 4 training phase over the corpus for the standard
// hypotheses plus HypManyVulns. Hypotheses train concurrently on a pool
// bounded by cfg.Jobs; the per-hypothesis RNGs are split from the seed in
// hypothesis order before the fan-out, so the model is identical to a
// sequential (Jobs = 1) run. Canceling ctx drains the pool cleanly and
// returns ctx's error (first-error-wins, matching ml.ParallelForCtx).
func Train(ctx context.Context, tb *Testbed, cfg TrainConfig) (*Model, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if _, err := NewClassifier(cfg.Kind); err != nil {
		return nil, err
	}
	hyps := append(StandardHypotheses(), HypManyVulns)
	// Span layout mirrors the extraction pipeline's discipline: the
	// sequential impute phase uses Child (seq 0), the parallel
	// per-hypothesis spans use ChildAt keyed by hypothesis index, and the
	// trailing regression span is keyed past them — deterministic
	// structure at any Jobs width.
	tr := trace.SpanFromContext(ctx).Child("train")
	defer tr.End()
	is := tr.Child("impute")
	tb.FitImputation()
	is.End()
	m := &Model{Config: cfg, Transformer: tb.Transformer}
	rng := stats.NewRNG(cfg.Seed)
	rngs := make([]*stats.RNG, len(hyps))
	for i := range hyps {
		rngs[i] = rng.Split()
	}
	hms := make([]*HypothesisModel, len(hyps))
	if err := ml.ParallelForCtx(ctx, len(hyps), cfg.Jobs, func(i int) error {
		hs := tr.ChildAt(1+i, "hypothesis")
		hs.SetLabel(hyps[i].Name)
		hm, err := TrainHypothesis(tb, hyps[i], cfg, rngs[i])
		hs.End()
		if err != nil {
			return fmt.Errorf("core: training %s: %w", hyps[i].Name, err)
		}
		hms[i] = hm
		return nil
	}); err != nil {
		return nil, err
	}
	m.Hypotheses = hms
	// Count regression.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rs := tr.ChildAt(1+len(hyps), "regression")
	defer rs.End()
	reg, err := tb.RegressionDataset()
	if err != nil {
		return nil, err
	}
	countModel := &ml.LinearRegressor{Lambda: 1.0}
	if err := countModel.Fit(reg); err != nil {
		return nil, err
	}
	m.CountModel = countModel
	m.CountEval = ml.EvaluateRegressor(countModel, reg)
	m.CountResidualStd = m.CountEval.RMSE
	return m, nil
}

// TrainHypothesis trains and cross-validates one hypothesis classifier.
func TrainHypothesis(tb *Testbed, h Hypothesis, cfg TrainConfig, rng *stats.RNG) (*HypothesisModel, error) {
	// Validate the kind once up front so the classifier factory below can
	// never fail mid-fold.
	if _, err := NewClassifier(cfg.Kind); err != nil {
		return nil, err
	}
	ds, err := tb.DatasetFor(h)
	if err != nil {
		return nil, err
	}
	gains := ml.InfoGain(ds, 10)
	importance := ml.RankFeatureWeights(ds.AttrNames, gains)
	if cfg.TopFeatures > 0 && cfg.TopFeatures < ds.P() {
		cols := ml.SelectTopK(gains, cfg.TopFeatures)
		ds = ml.ProjectColumns(ds, cols)
	}
	folds := cfg.Folds
	if folds < 2 {
		folds = 10
	}
	cv, err := ml.CrossValidateJobs(func() ml.Classifier {
		c, _ := NewClassifier(cfg.Kind) // kind validated at the top
		return c
	}, ds, folds, rng, cfg.Jobs)
	if err != nil {
		return nil, err
	}
	final, err := NewClassifier(cfg.Kind)
	if err != nil {
		return nil, err
	}
	if err := final.Fit(ds); err != nil {
		return nil, err
	}
	counts := ds.ClassCounts()
	base := 0.0
	if ds.N() > 0 {
		base = float64(counts[1]) / float64(ds.N())
	}
	return &HypothesisModel{
		Hypothesis: h,
		Kind:       cfg.Kind,
		Classifier: final,
		CV:         cv,
		Features:   append([]string(nil), ds.AttrNames...),
		Importance: importance,
		BaseRate:   base,
	}, nil
}

// projectRow maps a full transformed feature row onto the (possibly
// feature-selected) column set of a hypothesis model.
func (hm *HypothesisModel) projectRow(full []float64) []float64 {
	if len(hm.Features) == len(metrics.FeatureNames) {
		return full
	}
	idx := map[string]int{}
	for i, n := range metrics.FeatureNames {
		idx[n] = i
	}
	row := make([]float64, len(hm.Features))
	for i, n := range hm.Features {
		row[i] = full[idx[n]]
	}
	return row
}
