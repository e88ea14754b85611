package ml

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/stats"
)

// ConfusionMatrix counts [actual][predicted].
type ConfusionMatrix struct {
	Classes []string
	Counts  [][]int
}

// NewConfusionMatrix allocates a k-class matrix.
func NewConfusionMatrix(classes []string) *ConfusionMatrix {
	k := len(classes)
	counts := make([][]int, k)
	for i := range counts {
		counts[i] = make([]int, k)
	}
	return &ConfusionMatrix{Classes: classes, Counts: counts}
}

// Add records one prediction.
func (cm *ConfusionMatrix) Add(actual, predicted int) {
	cm.Counts[actual][predicted]++
}

// Total returns the number of recorded predictions.
func (cm *ConfusionMatrix) Total() int {
	n := 0
	for _, row := range cm.Counts {
		for _, c := range row {
			n += c
		}
	}
	return n
}

// Accuracy returns the fraction of correct predictions.
func (cm *ConfusionMatrix) Accuracy() float64 {
	n := cm.Total()
	if n == 0 {
		return 0
	}
	correct := 0
	for i := range cm.Counts {
		correct += cm.Counts[i][i]
	}
	return float64(correct) / float64(n)
}

// Precision of one class: TP / (TP + FP).
func (cm *ConfusionMatrix) Precision(c int) float64 {
	tp := cm.Counts[c][c]
	fp := 0
	for a := range cm.Counts {
		if a != c {
			fp += cm.Counts[a][c]
		}
	}
	if tp+fp == 0 {
		return 0
	}
	return float64(tp) / float64(tp+fp)
}

// Recall of one class: TP / (TP + FN).
func (cm *ConfusionMatrix) Recall(c int) float64 {
	tp := cm.Counts[c][c]
	fn := 0
	for p := range cm.Counts[c] {
		if p != c {
			fn += cm.Counts[c][p]
		}
	}
	if tp+fn == 0 {
		return 0
	}
	return float64(tp) / float64(tp+fn)
}

// F1 of one class.
func (cm *ConfusionMatrix) F1(c int) float64 {
	p, r := cm.Precision(c), cm.Recall(c)
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// String renders the matrix as an aligned table.
func (cm *ConfusionMatrix) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s", "actual\\pred")
	for _, c := range cm.Classes {
		fmt.Fprintf(&sb, "%10s", c)
	}
	sb.WriteString("\n")
	for i, row := range cm.Counts {
		fmt.Fprintf(&sb, "%-12s", cm.Classes[i])
		for _, n := range row {
			fmt.Fprintf(&sb, "%10d", n)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// Evaluation holds the metrics of one classification evaluation.
type Evaluation struct {
	Matrix    *ConfusionMatrix
	Accuracy  float64
	Precision float64 // of class 1 (the "positive" hypothesis class)
	Recall    float64
	F1        float64
	AUC       float64 // binary only; 0.5 when undefined
}

// Evaluate tests a fitted classifier on a dataset: PredictClass feeds the
// confusion matrix and, on a binary dataset, PredictProba's class-1
// probability feeds the AUC.
func Evaluate(c Classifier, test *Dataset) *Evaluation {
	cm := NewConfusionMatrix(test.ClassNames)
	binary := test.NumClasses() == 2
	var scores []float64 // probability of class 1, for AUC
	var labels []int
	for i, row := range test.X {
		cm.Add(int(test.Y[i]), c.PredictClass(row))
		if binary {
			scores = append(scores, c.PredictProba(row)[1])
			labels = append(labels, int(test.Y[i]))
		}
	}
	ev := &Evaluation{Matrix: cm, Accuracy: cm.Accuracy()}
	pos := 1
	if test.NumClasses() == 1 {
		pos = 0
	}
	if test.NumClasses() >= 2 {
		ev.Precision = cm.Precision(pos)
		ev.Recall = cm.Recall(pos)
		ev.F1 = cm.F1(pos)
	}
	ev.AUC = 0.5
	if len(scores) > 0 {
		ev.AUC = AUC(labels, scores)
	}
	return ev
}

// AUC computes the area under the ROC curve via the rank statistic
// (probability a random positive outranks a random negative; ties count
// half). Returns 0.5 when either class is absent.
func AUC(labels []int, scores []float64) float64 {
	var pos, neg int
	for _, l := range labels {
		if l == 1 {
			pos++
		} else {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		return 0.5
	}
	ranks := stats.Ranks(scores)
	sumPos := 0.0
	for i, l := range labels {
		if l == 1 {
			sumPos += ranks[i]
		}
	}
	u := sumPos - float64(pos)*float64(pos+1)/2
	return u / (float64(pos) * float64(neg))
}

// CVResult aggregates cross-validation metrics (means over folds).
type CVResult struct {
	Folds     int
	Accuracy  float64
	Precision float64
	Recall    float64
	F1        float64
	AUC       float64
	// Pooled is the confusion matrix summed over folds.
	Pooled *ConfusionMatrix
}

// String renders a one-line summary.
func (r *CVResult) String() string {
	return fmt.Sprintf("%d-fold CV: acc=%.3f prec=%.3f rec=%.3f f1=%.3f auc=%.3f",
		r.Folds, r.Accuracy, r.Precision, r.Recall, r.F1, r.AUC)
}

// CrossValidate runs stratified k-fold cross validation, refitting the
// classifier supplied by mk for every fold, with folds fitted concurrently
// on every core. Equivalent to CrossValidateJobs with jobs = 0.
func CrossValidate(mk func() Classifier, d *Dataset, k int, rng *stats.RNG) (*CVResult, error) {
	return CrossValidateJobs(mk, d, k, rng, 0)
}

// CrossValidateJobs is CrossValidate with an explicit worker-pool bound
// (jobs <= 0 uses every core). The fold partition is drawn from rng before
// the fan-out and per-fold metrics pool in fold order afterwards, so the
// result is identical for any jobs value. mk must be safe to call from
// multiple goroutines (it is called once per fold).
func CrossValidateJobs(mk func() Classifier, d *Dataset, k int, rng *stats.RNG, jobs int) (*CVResult, error) {
	folds := d.Folds(k, rng)
	evals := make([]*Evaluation, len(folds))
	err := ParallelFor(len(folds), jobs, func(fi int) error {
		test := d.Subset(folds[fi])
		var trainIdx []int
		for fj := range folds {
			if fj != fi {
				trainIdx = append(trainIdx, folds[fj]...)
			}
		}
		train := d.Subset(trainIdx)
		if test.N() == 0 || train.N() == 0 {
			return nil
		}
		c := mk()
		if err := c.Fit(train); err != nil {
			return fmt.Errorf("ml: fold %d: %w", fi, err)
		}
		evals[fi] = Evaluate(c, test)
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &CVResult{Folds: k, Pooled: NewConfusionMatrix(d.ClassNames)}
	used := 0
	for _, ev := range evals {
		if ev == nil {
			continue
		}
		res.Accuracy += ev.Accuracy
		res.Precision += ev.Precision
		res.Recall += ev.Recall
		res.F1 += ev.F1
		res.AUC += ev.AUC
		for a := range ev.Matrix.Counts {
			for p := range ev.Matrix.Counts[a] {
				res.Pooled.Counts[a][p] += ev.Matrix.Counts[a][p]
			}
		}
		used++
	}
	if used == 0 {
		return nil, fmt.Errorf("ml: no usable folds")
	}
	res.Accuracy /= float64(used)
	res.Precision /= float64(used)
	res.Recall /= float64(used)
	res.F1 /= float64(used)
	res.AUC /= float64(used)
	return res, nil
}

// RegressionMetrics holds regression evaluation results.
type RegressionMetrics struct {
	RMSE float64
	MAE  float64
	R2   float64
}

// EvaluateRegressor tests a fitted regressor.
func EvaluateRegressor(r *LinearRegressor, test *Dataset) RegressionMetrics {
	var sqe, abse float64
	preds := make([]float64, test.N())
	for i, row := range test.X {
		p := r.Predict(row)
		preds[i] = p
		d := p - test.Y[i]
		sqe += d * d
		abse += math.Abs(d)
	}
	n := float64(test.N())
	m := RegressionMetrics{}
	if n > 0 {
		m.RMSE = math.Sqrt(sqe / n)
		m.MAE = abse / n
		my := stats.Mean(test.Y)
		var ssTot float64
		for _, y := range test.Y {
			ssTot += (y - my) * (y - my)
		}
		if ssTot > 0 {
			m.R2 = 1 - sqe/ssTot
		}
	}
	return m
}

// RankFeatureWeights pairs attribute names with |weight| importance scores
// and sorts descending — the paper's "properties that heavily contribute to
// a given result can be flagged for developer attention".
type FeatureWeight struct {
	Name   string
	Weight float64
}

// RankFeatureWeights sorts by absolute weight.
func RankFeatureWeights(names []string, weights []float64) []FeatureWeight {
	out := make([]FeatureWeight, 0, len(names))
	for i, n := range names {
		if i < len(weights) {
			out = append(out, FeatureWeight{Name: n, Weight: weights[i]})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return math.Abs(out[i].Weight) > math.Abs(out[j].Weight)
	})
	return out
}
