package ml

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// AdaBoost is a binary SAMME/AdaBoost.M1 ensemble of decision stumps
// (depth-2 CART trees). Boosting complements bagging (RandomForest) in the
// family comparison: it drives training error down by reweighting the
// instances each round.
type AdaBoost struct {
	Rounds   int
	MaxDepth int
	Seed     uint64

	flat   *flatForest // the fitted or loaded stumps, one tree each; nil before
	alphas []float64   // each stump's say, in tree order
	k      int
}

// Name implements Classifier.
func (ab *AdaBoost) Name() string { return "AdaBoost" }

// Fit trains the ensemble on weighted resamples (weights are realized by
// weighted bootstrap sampling, which keeps the weak learner unmodified).
func (ab *AdaBoost) Fit(d *Dataset) error {
	if !d.IsClassification() || d.N() == 0 {
		return fmt.Errorf("ml: AdaBoost needs a non-empty classification dataset")
	}
	if d.NumClasses() != 2 {
		return fmt.Errorf("ml: AdaBoost supports binary classification only, got %d classes", d.NumClasses())
	}
	if ab.Rounds == 0 {
		ab.Rounds = 30
	}
	if ab.MaxDepth == 0 {
		ab.MaxDepth = 2
	}
	ab.k = 2
	ab.flat = &flatForest{k: 2}
	ab.alphas = nil
	rng := stats.NewRNG(ab.Seed + 0xb005)
	n := d.N()
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(n)
	}
	for round := 0; round < ab.Rounds; round++ {
		sample := weightedBootstrap(d, w, rng)
		stump := &DecisionTree{MaxDepth: ab.MaxDepth, MinLeafSize: 1}
		if err := stump.Fit(sample); err != nil {
			return err
		}
		// Weighted error on the original data.
		errW := 0.0
		miss := make([]bool, n)
		for i, row := range d.X {
			if stump.PredictClass(row) != int(d.Y[i]) {
				errW += w[i]
				miss[i] = true
			}
		}
		if errW <= 1e-12 {
			// Perfect stump: give it a large, finite say and stop.
			ab.flat.appendTrees(stump.flat)
			ab.alphas = append(ab.alphas, 10)
			break
		}
		if errW >= 0.5 {
			// No better than chance: resample and try again (bounded by
			// the round budget).
			continue
		}
		alpha := 0.5 * math.Log((1-errW)/errW)
		ab.flat.appendTrees(stump.flat)
		ab.alphas = append(ab.alphas, alpha)
		// Reweight and normalize.
		total := 0.0
		for i := range w {
			if miss[i] {
				w[i] *= math.Exp(alpha)
			} else {
				w[i] *= math.Exp(-alpha)
			}
			total += w[i]
		}
		for i := range w {
			w[i] /= total
		}
	}
	if len(ab.alphas) == 0 {
		// Degenerate data: fall back to a single stump.
		stump := &DecisionTree{MaxDepth: ab.MaxDepth, MinLeafSize: 1}
		if err := stump.Fit(d); err != nil {
			return err
		}
		ab.flat.appendTrees(stump.flat)
		ab.alphas = append(ab.alphas, 1)
	}
	return nil
}

func weightedBootstrap(d *Dataset, w []float64, rng *stats.RNG) *Dataset {
	idx := make([]int, d.N())
	for i := range idx {
		idx[i] = rng.Choice(w)
	}
	return d.Subset(idx)
}

// score returns the weighted margin for class 1.
func (ab *AdaBoost) score(x []float64) float64 {
	s := 0.0
	for i, root := range ab.flat.roots {
		if argmax(ab.flat.leafProbs(root, x)) == 1 {
			s += ab.alphas[i]
		} else {
			s -= ab.alphas[i]
		}
	}
	return s
}

// PredictClass returns the sign of the ensemble margin.
func (ab *AdaBoost) PredictClass(x []float64) int {
	if ab.score(x) > 0 {
		return 1
	}
	return 0
}

// PredictProba squashes the margin through a logistic link.
func (ab *AdaBoost) PredictProba(x []float64) []float64 {
	p1 := sigmoid(2 * ab.score(x))
	return []float64{1 - p1, p1}
}

// Rounds used (may be fewer than configured when a perfect stump appears).
func (ab *AdaBoost) FittedRounds() int { return len(ab.alphas) }
