package ml

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// Classifier is the common fit/predict interface. PredictProba returns
// one probability per class.
type Classifier interface {
	Fit(d *Dataset) error
	PredictClass(x []float64) int
	PredictProba(x []float64) []float64
	Name() string
}

// ZeroR always predicts the majority class — the baseline every real model
// must beat (Weka's ZeroR).
type ZeroR struct {
	Majority int
	K        int
	counts   []int
}

// Name implements Classifier.
func (z *ZeroR) Name() string { return "ZeroR" }

// Fit memorizes the majority class.
func (z *ZeroR) Fit(d *Dataset) error {
	if !d.IsClassification() || d.N() == 0 {
		return fmt.Errorf("ml: ZeroR needs a non-empty classification dataset")
	}
	z.Majority = d.MajorityClass()
	z.K = d.NumClasses()
	z.counts = d.ClassCounts()
	return nil
}

// PredictClass returns the majority class.
func (z *ZeroR) PredictClass(x []float64) int { return z.Majority }

// PredictProba returns the training class frequencies.
func (z *ZeroR) PredictProba(x []float64) []float64 {
	out := make([]float64, z.K)
	total := 0
	for _, c := range z.counts {
		total += c
	}
	if total == 0 {
		return out
	}
	for i, c := range z.counts {
		out[i] = float64(c) / float64(total)
	}
	return out
}

// GaussianNB is a Gaussian naive Bayes classifier.
type GaussianNB struct {
	K      int
	Priors []float64
	Mean   [][]float64 // [class][attr]
	Var    [][]float64
}

// Name implements Classifier.
func (nb *GaussianNB) Name() string { return "NaiveBayes" }

// Fit estimates per-class Gaussians with variance smoothing.
func (nb *GaussianNB) Fit(d *Dataset) error {
	if !d.IsClassification() || d.N() == 0 {
		return fmt.Errorf("ml: NaiveBayes needs a non-empty classification dataset")
	}
	nb.K = d.NumClasses()
	nb.Priors = make([]float64, nb.K)
	nb.Mean = make([][]float64, nb.K)
	nb.Var = make([][]float64, nb.K)
	// Global variance for smoothing.
	eps := 1e-9
	for j := 0; j < d.P(); j++ {
		v := stats.Variance(d.Column(j))
		if v*1e-9 > eps {
			eps = v * 1e-9
		}
	}
	for c := 0; c < nb.K; c++ {
		var idx []int
		for i, y := range d.Y {
			if int(y) == c {
				idx = append(idx, i)
			}
		}
		nb.Priors[c] = (float64(len(idx)) + 1) / (float64(d.N()) + float64(nb.K))
		nb.Mean[c] = make([]float64, d.P())
		nb.Var[c] = make([]float64, d.P())
		sub := d.Subset(idx)
		for j := 0; j < d.P(); j++ {
			if len(idx) == 0 {
				nb.Mean[c][j] = 0
				nb.Var[c][j] = 1
				continue
			}
			col := sub.Column(j)
			nb.Mean[c][j] = stats.Mean(col)
			nb.Var[c][j] = stats.Variance(col) + eps
		}
	}
	return nil
}

// PredictProba returns normalized class posteriors.
func (nb *GaussianNB) PredictProba(x []float64) []float64 {
	logp := make([]float64, nb.K)
	for c := 0; c < nb.K; c++ {
		lp := math.Log(nb.Priors[c])
		for j := 0; j < len(x) && j < len(nb.Mean[c]); j++ {
			m, v := nb.Mean[c][j], nb.Var[c][j]
			lp += -0.5*math.Log(2*math.Pi*v) - (x[j]-m)*(x[j]-m)/(2*v)
		}
		logp[c] = lp
	}
	// Softmax over log probabilities.
	maxLp := logp[0]
	for _, lp := range logp[1:] {
		if lp > maxLp {
			maxLp = lp
		}
	}
	out := make([]float64, nb.K)
	total := 0.0
	for c, lp := range logp {
		out[c] = math.Exp(lp - maxLp)
		total += out[c]
	}
	for c := range out {
		out[c] /= total
	}
	return out
}

// PredictClass returns the argmax posterior.
func (nb *GaussianNB) PredictClass(x []float64) int {
	return argmax(nb.PredictProba(x))
}

// Logistic is a binary or multinomial (one-vs-rest) logistic regression
// trained by batch gradient descent with L2 regularization. Inputs are
// standardized internally.
type Logistic struct {
	Epochs int
	LR     float64
	L2     float64

	K      int
	W      [][]float64 // [class][attr+1], index 0 is the bias
	scaler *Standardizer
}

// Name implements Classifier.
func (lg *Logistic) Name() string { return "Logistic" }

func (lg *Logistic) defaults() {
	if lg.Epochs == 0 {
		lg.Epochs = 200
	}
	if lg.LR == 0 {
		lg.LR = 0.1
	}
	if lg.L2 == 0 {
		lg.L2 = 1e-3
	}
}

// Fit trains one weight vector per class (one-vs-rest).
func (lg *Logistic) Fit(d *Dataset) error {
	if !d.IsClassification() || d.N() == 0 {
		return fmt.Errorf("ml: Logistic needs a non-empty classification dataset")
	}
	lg.defaults()
	lg.K = d.NumClasses()
	lg.scaler = FitStandardizer(d)
	ds := lg.scaler.Apply(d)
	p := ds.P()
	lg.W = make([][]float64, lg.K)
	for c := 0; c < lg.K; c++ {
		w := make([]float64, p+1)
		for epoch := 0; epoch < lg.Epochs; epoch++ {
			grad := make([]float64, p+1)
			for i, row := range ds.X {
				t := 0.0
				if int(ds.Y[i]) == c {
					t = 1
				}
				pred := sigmoid(dotBias(w, row))
				err := pred - t
				grad[0] += err
				for j, v := range row {
					grad[j+1] += err * v
				}
			}
			n := float64(ds.N())
			for j := range w {
				g := grad[j] / n
				if j > 0 {
					g += lg.L2 * w[j]
				}
				w[j] -= lg.LR * g
			}
		}
		lg.W[c] = w
	}
	return nil
}

// PredictProba returns normalized one-vs-rest scores.
func (lg *Logistic) PredictProba(x []float64) []float64 {
	row := append([]float64(nil), x...)
	lg.scaler.ApplyRow(row)
	out := make([]float64, lg.K)
	total := 0.0
	for c := 0; c < lg.K; c++ {
		out[c] = sigmoid(dotBias(lg.W[c], row))
		total += out[c]
	}
	if total > 0 {
		for c := range out {
			out[c] /= total
		}
	}
	return out
}

// PredictClass returns the highest-scoring class.
func (lg *Logistic) PredictClass(x []float64) int {
	return argmax(lg.PredictProba(x))
}

// Weights returns the trained weight vector of one class (bias first),
// exposed so the report can surface feature importances — the paper's "each
// weight shows the importance of the corresponding code property".
func (lg *Logistic) Weights(class int) []float64 {
	return append([]float64(nil), lg.W[class]...)
}

// KNN is a k-nearest-neighbour classifier over standardized features.
type KNN struct {
	K int

	k      int
	data   *Dataset
	scaler *Standardizer
}

// Name implements Classifier.
func (kn *KNN) Name() string { return fmt.Sprintf("%d-NN", kn.effectiveK()) }

func (kn *KNN) effectiveK() int {
	if kn.K <= 0 {
		return 5
	}
	return kn.K
}

// Fit memorizes the training data.
func (kn *KNN) Fit(d *Dataset) error {
	if !d.IsClassification() || d.N() == 0 {
		return fmt.Errorf("ml: KNN needs a non-empty classification dataset")
	}
	kn.k = kn.effectiveK()
	kn.scaler = FitStandardizer(d)
	kn.data = kn.scaler.Apply(d)
	return nil
}

// PredictProba votes among the k nearest training rows.
func (kn *KNN) PredictProba(x []float64) []float64 {
	row := append([]float64(nil), x...)
	kn.scaler.ApplyRow(row)
	k := kn.k
	if k > kn.data.N() {
		k = kn.data.N()
	}
	type nb struct {
		dist float64
		y    int
	}
	best := make([]nb, 0, k+1)
	for i, tr := range kn.data.X {
		d := sqDist(row, tr)
		if len(best) < k || d < best[len(best)-1].dist {
			best = append(best, nb{dist: d, y: int(kn.data.Y[i])})
			// Insertion sort step (k is small).
			for j := len(best) - 1; j > 0 && best[j].dist < best[j-1].dist; j-- {
				best[j], best[j-1] = best[j-1], best[j]
			}
			if len(best) > k {
				best = best[:k]
			}
		}
	}
	out := make([]float64, kn.data.NumClasses())
	for _, b := range best {
		out[b.y]++
	}
	for c := range out {
		out[c] /= float64(len(best))
	}
	return out
}

// PredictClass returns the majority vote.
func (kn *KNN) PredictClass(x []float64) int {
	return argmax(kn.PredictProba(x))
}

func sigmoid(z float64) float64 {
	if z < -40 {
		return 0
	}
	if z > 40 {
		return 1
	}
	return 1 / (1 + math.Exp(-z))
}

func dotBias(w, x []float64) float64 {
	s := w[0]
	for j := 0; j < len(x) && j+1 < len(w); j++ {
		s += w[j+1] * x[j]
	}
	return s
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := 0; i < len(a) && i < len(b); i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

func argmax(xs []float64) int {
	best, bestV := 0, math.Inf(-1)
	for i, v := range xs {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best
}
