// Package ml is a self-contained machine-learning library standing in for
// the Weka toolkit in the paper's Figure 4 pipeline: datasets with named
// attributes, preprocessing filters, a family of classifiers, the linear
// regressor that predicts vulnerability counts, stratified cross
// validation, and the standard evaluation metrics.
package ml

import (
	"fmt"

	"repro/internal/stats"
)

// Dataset is a feature matrix with a target column. When ClassNames is
// non-empty the target holds class indexes (classification); otherwise it is
// a continuous value (regression).
type Dataset struct {
	AttrNames  []string
	ClassNames []string
	X          [][]float64
	Y          []float64
}

// NewDataset validates and constructs a dataset.
func NewDataset(attrNames []string, classNames []string, X [][]float64, Y []float64) (*Dataset, error) {
	if len(X) != len(Y) {
		return nil, fmt.Errorf("ml: %d rows but %d targets", len(X), len(Y))
	}
	for i, row := range X {
		if len(row) != len(attrNames) {
			return nil, fmt.Errorf("ml: row %d has %d attributes, want %d", i, len(row), len(attrNames))
		}
	}
	if len(classNames) > 0 {
		for i, y := range Y {
			c := int(y)
			if float64(c) != y || c < 0 || c >= len(classNames) {
				return nil, fmt.Errorf("ml: row %d target %v is not a class index", i, y)
			}
		}
	}
	return &Dataset{AttrNames: attrNames, ClassNames: classNames, X: X, Y: Y}, nil
}

// N returns the number of instances.
func (d *Dataset) N() int { return len(d.X) }

// P returns the number of attributes.
func (d *Dataset) P() int { return len(d.AttrNames) }

// NumClasses returns the class count (0 for regression datasets).
func (d *Dataset) NumClasses() int { return len(d.ClassNames) }

// IsClassification reports whether the target is nominal.
func (d *Dataset) IsClassification() bool { return len(d.ClassNames) > 0 }

// Clone deep-copies the dataset.
func (d *Dataset) Clone() *Dataset {
	X := make([][]float64, len(d.X))
	for i, row := range d.X {
		X[i] = append([]float64(nil), row...)
	}
	return &Dataset{
		AttrNames:  append([]string(nil), d.AttrNames...),
		ClassNames: append([]string(nil), d.ClassNames...),
		X:          X,
		Y:          append([]float64(nil), d.Y...),
	}
}

// Subset returns a dataset view over the given row indexes (rows are
// shared, not copied).
func (d *Dataset) Subset(idx []int) *Dataset {
	X := make([][]float64, len(idx))
	Y := make([]float64, len(idx))
	for i, j := range idx {
		X[i] = d.X[j]
		Y[i] = d.Y[j]
	}
	return &Dataset{AttrNames: d.AttrNames, ClassNames: d.ClassNames, X: X, Y: Y}
}

// Column returns a copy of one attribute column.
func (d *Dataset) Column(j int) []float64 {
	out := make([]float64, d.N())
	for i, row := range d.X {
		out[i] = row[j]
	}
	return out
}

// ClassCounts returns the per-class instance counts.
func (d *Dataset) ClassCounts() []int {
	counts := make([]int, d.NumClasses())
	for _, y := range d.Y {
		counts[int(y)]++
	}
	return counts
}

// MajorityClass returns the most frequent class index.
func (d *Dataset) MajorityClass() int {
	counts := d.ClassCounts()
	best, bestN := 0, -1
	for c, n := range counts {
		if n > bestN {
			best, bestN = c, n
		}
	}
	return best
}

// Split partitions rows into train and test sets with the given test
// fraction, shuffled by rng. Classification datasets are stratified so both
// partitions preserve class ratios.
func (d *Dataset) Split(testFrac float64, rng *stats.RNG) (train, test *Dataset) {
	folds := int(1 / testFrac)
	if folds < 2 {
		folds = 2
	}
	parts := d.Folds(folds, rng)
	testIdx := parts[0]
	var trainIdx []int
	for _, p := range parts[1:] {
		trainIdx = append(trainIdx, p...)
	}
	return d.Subset(trainIdx), d.Subset(testIdx)
}

// Folds returns k disjoint row-index partitions covering every row. For
// classification data the folds are stratified by class.
func (d *Dataset) Folds(k int, rng *stats.RNG) [][]int {
	if k < 2 {
		k = 2
	}
	folds := make([][]int, k)
	if d.IsClassification() {
		// Group rows by class, shuffle within each class, deal round-robin.
		byClass := map[int][]int{}
		for i, y := range d.Y {
			c := int(y)
			byClass[c] = append(byClass[c], i)
		}
		for c := 0; c < d.NumClasses(); c++ {
			rows := byClass[c]
			rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
			for i, r := range rows {
				folds[i%k] = append(folds[i%k], r)
			}
		}
		return folds
	}
	perm := rng.Perm(d.N())
	for i, r := range perm {
		folds[i%k] = append(folds[i%k], r)
	}
	return folds
}

// Bootstrap returns a dataset of n rows sampled with replacement.
func (d *Dataset) Bootstrap(n int, rng *stats.RNG) *Dataset {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = rng.Intn(d.N())
	}
	return d.Subset(idx)
}
