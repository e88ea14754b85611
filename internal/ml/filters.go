package ml

import (
	"math"
	"sort"

	"repro/internal/stats"
)

// Standardizer rescales every attribute to zero mean and unit variance,
// remembering the parameters so test data transforms consistently.
type Standardizer struct {
	Mean, Std []float64
}

// FitStandardizer learns per-column parameters.
func FitStandardizer(d *Dataset) *Standardizer {
	s := &Standardizer{Mean: make([]float64, d.P()), Std: make([]float64, d.P())}
	for j := 0; j < d.P(); j++ {
		col := d.Column(j)
		s.Mean[j] = stats.Mean(col)
		s.Std[j] = stats.StdDev(col)
		if s.Std[j] == 0 {
			s.Std[j] = 1
		}
	}
	return s
}

// Apply returns a standardized copy of the dataset.
func (s *Standardizer) Apply(d *Dataset) *Dataset {
	out := d.Clone()
	for _, row := range out.X {
		s.ApplyRow(row)
	}
	return out
}

// ApplyRow standardizes one feature vector in place.
func (s *Standardizer) ApplyRow(row []float64) {
	for j := range row {
		if j < len(s.Mean) {
			row[j] = (row[j] - s.Mean[j]) / s.Std[j]
		}
	}
}

// Discretizer buckets a numeric column into equal-frequency bins.
type Discretizer struct {
	Cuts []float64 // ascending cut points; value v maps to bin = #cuts <= v
}

// FitDiscretizer learns bin boundaries for one column.
func FitDiscretizer(col []float64, bins int) *Discretizer {
	if bins < 2 {
		bins = 2
	}
	sorted := append([]float64(nil), col...)
	sort.Float64s(sorted)
	var cuts []float64
	for b := 1; b < bins; b++ {
		q := stats.Quantile(sorted, float64(b)/float64(bins))
		if len(cuts) == 0 || q > cuts[len(cuts)-1] {
			cuts = append(cuts, q)
		}
	}
	return &Discretizer{Cuts: cuts}
}

// Bin maps a value to its bin index.
func (dz *Discretizer) Bin(v float64) int {
	n := 0
	for _, c := range dz.Cuts {
		if v >= c {
			n++
		}
	}
	return n
}

// NumBins returns the number of bins.
func (dz *Discretizer) NumBins() int { return len(dz.Cuts) + 1 }

// InfoGain scores each attribute of a classification dataset by the mutual
// information between a discretized version of the attribute and the class,
// the filter Weka calls InfoGainAttributeEval.
func InfoGain(d *Dataset, bins int) []float64 {
	if !d.IsClassification() || d.N() == 0 {
		return make([]float64, d.P())
	}
	baseEntropy := classEntropy(d.Y, d.NumClasses())
	out := make([]float64, d.P())
	for j := 0; j < d.P(); j++ {
		col := d.Column(j)
		dz := FitDiscretizer(col, bins)
		// Partition class labels by bin.
		byBin := make([][]float64, dz.NumBins())
		for i, v := range col {
			b := dz.Bin(v)
			byBin[b] = append(byBin[b], d.Y[i])
		}
		cond := 0.0
		for _, labels := range byBin {
			if len(labels) == 0 {
				continue
			}
			w := float64(len(labels)) / float64(d.N())
			cond += w * classEntropy(labels, d.NumClasses())
		}
		out[j] = baseEntropy - cond
		if out[j] < 0 {
			out[j] = 0
		}
	}
	return out
}

func classEntropy(labels []float64, k int) float64 {
	counts := make([]int, k)
	for _, y := range labels {
		counts[int(y)]++
	}
	h := 0.0
	n := float64(len(labels))
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / n
		h -= p * math.Log2(p)
	}
	return h
}

// SelectTopK returns the indexes of the k highest-scoring attributes,
// in descending score order (ties broken by attribute index).
func SelectTopK(scores []float64, k int) []int {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}

// ProjectColumns returns a dataset containing only the given columns.
func ProjectColumns(d *Dataset, cols []int) *Dataset {
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = d.AttrNames[c]
	}
	X := make([][]float64, d.N())
	for i, row := range d.X {
		nr := make([]float64, len(cols))
		for k, c := range cols {
			nr[k] = row[c]
		}
		X[i] = nr
	}
	return &Dataset{AttrNames: names, ClassNames: d.ClassNames, X: X, Y: append([]float64(nil), d.Y...)}
}
