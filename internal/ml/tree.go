package ml

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/stats"
)

// DecisionTree is a CART-style classifier: binary splits on numeric
// attributes chosen by Gini impurity.
type DecisionTree struct {
	MaxDepth    int
	MinLeafSize int
	// FeatureSubset, when > 0, samples that many candidate attributes per
	// split (used by RandomForest); 0 considers every attribute.
	FeatureSubset int
	// Rng drives feature subsampling; required when FeatureSubset > 0.
	Rng *stats.RNG

	flat *flatForest // the fitted or loaded tree, rooted at node 0; nil before
	k    int

	// Per-tree scratch reused across splits while fitting; each tree fits on
	// one goroutine, so the buffers are never shared.
	splitVals []float64
	lCounts   []int
	rCounts   []int
	attrsBuf  []int
}

// Name implements Classifier.
func (t *DecisionTree) Name() string { return "DecisionTree" }

func (t *DecisionTree) defaults() {
	if t.MaxDepth == 0 {
		t.MaxDepth = 12
	}
	if t.MinLeafSize == 0 {
		t.MinLeafSize = 2
	}
}

// Fit grows the tree.
func (t *DecisionTree) Fit(d *Dataset) error {
	if !d.IsClassification() || d.N() == 0 {
		return fmt.Errorf("ml: DecisionTree needs a non-empty classification dataset")
	}
	if t.FeatureSubset > 0 && t.Rng == nil {
		return fmt.Errorf("ml: FeatureSubset requires Rng")
	}
	t.defaults()
	t.k = d.NumClasses()
	idx := make([]int, d.N())
	for i := range idx {
		idx[i] = i
	}
	t.flat = &flatForest{k: t.k, roots: []int32{0}}
	t.grow(d, idx, 0)
	return nil
}

// leaf appends a leaf holding the class frequencies of idx.
func (t *DecisionTree) leaf(d *Dataset, idx []int) {
	probs := make([]float64, t.k)
	for _, i := range idx {
		probs[int(d.Y[i])]++
	}
	for c := range probs {
		probs[c] /= float64(len(idx))
	}
	t.flat.addLeaf(probs)
}

// grow appends the subtree fitted to idx in preorder: the split node, its
// left subtree at the next index, then its right subtree.
func (t *DecisionTree) grow(d *Dataset, idx []int, depth int) {
	if len(idx) <= t.MinLeafSize || depth >= t.MaxDepth || pure(d, idx) {
		t.leaf(d, idx)
		return
	}
	attr, thr, gain := t.bestSplit(d, idx)
	if gain <= 1e-12 {
		t.leaf(d, idx)
		return
	}
	var left, right []int
	for _, i := range idx {
		if d.X[i][attr] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		t.leaf(d, idx)
		return
	}
	id := len(t.flat.nodes)
	t.flat.nodes = append(t.flat.nodes, flatNode{attr: int32(attr), thr: thr})
	t.grow(d, left, depth+1)
	t.flat.nodes[id].right = int32(len(t.flat.nodes))
	t.grow(d, right, depth+1)
}

func pure(d *Dataset, idx []int) bool {
	if len(idx) == 0 {
		return true
	}
	first := d.Y[idx[0]]
	for _, i := range idx[1:] {
		if d.Y[i] != first {
			return false
		}
	}
	return true
}

// bestSplit scans candidate attributes and thresholds for the largest Gini
// impurity decrease.
func (t *DecisionTree) bestSplit(d *Dataset, idx []int) (attr int, thr float64, gain float64) {
	parentGini := gini(d, idx, t.k)
	attrs := t.candidateAttrs(d.P())
	bestGain := 0.0
	bestAttr, bestThr := -1, 0.0
	if cap(t.splitVals) < len(idx) {
		t.splitVals = make([]float64, len(idx))
	}
	if len(t.lCounts) != t.k {
		t.lCounts = make([]int, t.k)
		t.rCounts = make([]int, t.k)
	}
	lCounts, rCounts := t.lCounts, t.rCounts
	for _, j := range attrs {
		// Candidate thresholds: midpoints between distinct sorted values.
		vals := t.splitVals[:len(idx)]
		for i, r := range idx {
			vals[i] = d.X[r][j]
		}
		sort.Float64s(vals)
		for v := 1; v < len(vals); v++ {
			if vals[v] == vals[v-1] {
				continue
			}
			mid := (vals[v] + vals[v-1]) / 2
			var nl, nr int
			for c := range lCounts {
				lCounts[c] = 0
				rCounts[c] = 0
			}
			for _, r := range idx {
				if d.X[r][j] <= mid {
					nl++
					lCounts[int(d.Y[r])]++
				} else {
					nr++
					rCounts[int(d.Y[r])]++
				}
			}
			if nl == 0 || nr == 0 {
				continue
			}
			g := parentGini -
				(float64(nl)*giniCounts(lCounts, nl)+float64(nr)*giniCounts(rCounts, nr))/float64(len(idx))
			if g > bestGain {
				bestGain, bestAttr, bestThr = g, j, mid
			}
		}
	}
	return bestAttr, bestThr, bestGain
}

func (t *DecisionTree) candidateAttrs(p int) []int {
	if cap(t.attrsBuf) < p {
		t.attrsBuf = make([]int, p)
	}
	all := t.attrsBuf[:p]
	for i := range all {
		all[i] = i
	}
	if t.FeatureSubset <= 0 || t.FeatureSubset >= p {
		return all
	}
	t.Rng.Shuffle(p, func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all[:t.FeatureSubset]
}

func gini(d *Dataset, idx []int, k int) float64 {
	counts := make([]int, k)
	for _, i := range idx {
		counts[int(d.Y[i])]++
	}
	return giniCounts(counts, len(idx))
}

func giniCounts(counts []int, n int) float64 {
	if n == 0 {
		return 0
	}
	g := 1.0
	for _, c := range counts {
		p := float64(c) / float64(n)
		g -= p * p
	}
	return g
}

// PredictProba returns the class probabilities of the leaf x reaches.
func (t *DecisionTree) PredictProba(x []float64) []float64 {
	return t.flat.leafProbs(0, x)
}

// PredictClass returns the leaf majority.
func (t *DecisionTree) PredictClass(x []float64) int {
	return argmax(t.PredictProba(x))
}

// Depth returns the tree height (leaves have depth 1).
func (t *DecisionTree) Depth() int {
	var h func(i int32) (int, int32) // height of the subtree at i, and the index after it
	h = func(i int32) (int, int32) {
		if t.flat.nodes[i].attr == flatLeaf {
			return 1, i + 1
		}
		l, next := h(i + 1)
		r, end := h(next)
		return 1 + max(l, r), end
	}
	d, _ := h(0)
	return d
}

// SplitWidth is the number of leading feature columns a tree classifier's
// splits read (its largest split attribute plus one); any other classifier
// reports 0. Predicting on a narrower row would index past its end, so
// model loaders refuse a classifier wider than the rows it will score.
func SplitWidth(c Classifier) int {
	var ff *flatForest
	switch m := c.(type) {
	case *DecisionTree:
		ff = m.flat
	case *AdaBoost:
		ff = m.flat
	case *RandomForest:
		ff = m.flat
	}
	w := 0
	if ff != nil {
		for _, n := range ff.nodes {
			w = max(w, int(n.attr)+1) // a leaf's attr is flatLeaf (-1)
		}
	}
	return w
}

// RandomForest bags FeatureSubset-sampled decision trees.
type RandomForest struct {
	Trees       int
	MaxDepth    int
	MinLeafSize int
	Seed        uint64
	// Jobs bounds the tree-fitting worker pool; <= 0 uses every core. The
	// fitted forest is bit-identical for any Jobs value because each
	// tree's RNG and bootstrap sample are drawn sequentially from Seed
	// before the fan-out.
	Jobs int

	k    int
	flat *flatForest // the fitted or loaded ensemble; nil before
}

// Name implements Classifier.
func (rf *RandomForest) Name() string { return "RandomForest" }

// Fit trains the ensemble on bootstrap resamples. Trees fit concurrently
// on a bounded worker pool; determinism is preserved by consuming all
// seed-derived randomness (per-tree RNG splits and bootstrap indexes) in
// tree order before any tree starts fitting.
func (rf *RandomForest) Fit(d *Dataset) error {
	if !d.IsClassification() || d.N() == 0 {
		return fmt.Errorf("ml: RandomForest needs a non-empty classification dataset")
	}
	if rf.Trees == 0 {
		rf.Trees = 25
	}
	if rf.MaxDepth == 0 {
		rf.MaxDepth = 10
	}
	rf.k = d.NumClasses()
	rng := stats.NewRNG(rf.Seed + 0x5eed)
	subset := int(math.Sqrt(float64(d.P()))) + 1
	trees := make([]*DecisionTree, rf.Trees)
	boots := make([]*Dataset, rf.Trees)
	for i := range trees {
		trees[i] = &DecisionTree{
			MaxDepth:      rf.MaxDepth,
			MinLeafSize:   rf.MinLeafSize,
			FeatureSubset: subset,
			Rng:           rng.Split(),
		}
		boots[i] = d.Bootstrap(d.N(), rng)
	}
	rf.flat = nil
	if err := ParallelFor(rf.Trees, rf.Jobs, func(i int) error {
		return trees[i].Fit(boots[i])
	}); err != nil {
		return err
	}
	rf.flat = &flatForest{k: rf.k}
	for _, tr := range trees {
		rf.flat.appendTrees(tr.flat)
	}
	return nil
}

// PredictProba averages tree probabilities over the forest.
func (rf *RandomForest) PredictProba(x []float64) []float64 {
	out := make([]float64, rf.k)
	if rf.flat == nil {
		return out
	}
	rf.flat.accumulateInto(x, out)
	return out
}

// PredictClass returns the ensemble vote.
func (rf *RandomForest) PredictClass(x []float64) int {
	return argmax(rf.PredictProba(x))
}
