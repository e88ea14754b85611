package core

import (
	"bytes"
	"testing"

	"repro/internal/bench"
	"repro/internal/metrics"
	"repro/internal/ml"
	"repro/internal/stats"
)

// syntheticForestModel builds a loadable forest model without corpus
// generation: one forest per standard hypothesis over the full feature
// schema, fit on class-shifted Gaussian rows at servebench's model scales.
func syntheticForestModel(b *testing.B) *Model {
	b.Helper()
	rng := stats.NewRNG(7)
	names := append([]string(nil), metrics.FeatureNames...)
	X := make([][]float64, bench.FitRows)
	Y := make([]float64, bench.FitRows)
	for i := range X {
		class := i % 2
		X[i] = make([]float64, len(names))
		for j := range X[i] {
			shift := 0.0
			if class == 1 && j%3 == 0 {
				shift = 1.5
			}
			X[i][j] = rng.Normal(shift, 1)
		}
		Y[i] = float64(class)
	}
	d, err := ml.NewDataset(names, []string{"no", "yes"}, X, Y)
	if err != nil {
		b.Fatal(err)
	}
	m := &Model{Config: TrainConfig{Kind: KindForest}, Transformer: DefaultTransformer()}
	for i, h := range StandardHypotheses() {
		rf := &ml.RandomForest{Trees: bench.ModelTrees, MaxDepth: bench.FitDepth, Seed: uint64(i), Jobs: 1}
		if err := rf.Fit(d); err != nil {
			b.Fatal(err)
		}
		m.Hypotheses = append(m.Hypotheses, &HypothesisModel{
			Hypothesis: h,
			Kind:       KindForest,
			Classifier: rf,
			Features:   names,
			BaseRate:   0.5,
		})
	}
	return m
}

// BenchmarkLoadModel times LoadModel over one forest model in each on-disk
// format — the cost secmetricd pays at startup and on /v1/models/reload.
func BenchmarkLoadModel(b *testing.B) {
	m := syntheticForestModel(b)
	var jbuf, bbuf bytes.Buffer
	if err := m.Save(&jbuf); err != nil {
		b.Fatal(err)
	}
	if err := m.SaveBinary(&bbuf); err != nil {
		b.Fatal(err)
	}
	for _, format := range []struct {
		name string
		raw  []byte
	}{{"json", jbuf.Bytes()}, {"bin", bbuf.Bytes()}} {
		b.Run(format.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(format.raw)))
			for i := 0; i < b.N; i++ {
				got, err := LoadModel(bytes.NewReader(format.raw))
				if err != nil {
					b.Fatal(err)
				}
				if len(got.Hypotheses) != len(m.Hypotheses) {
					b.Fatalf("loaded %d hypotheses, want %d", len(got.Hypotheses), len(m.Hypotheses))
				}
			}
		})
	}
}
