package ml

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func TestStandardizer(t *testing.T) {
	d := linearDataset(500, stats.NewRNG(1))
	s := FitStandardizer(d)
	ds := s.Apply(d)
	for j := 0; j < ds.P(); j++ {
		col := ds.Column(j)
		if m := stats.Mean(col); math.Abs(m) > 1e-9 {
			t.Fatalf("col %d mean = %v", j, m)
		}
		if sd := stats.StdDev(col); math.Abs(sd-1) > 1e-9 {
			t.Fatalf("col %d std = %v", j, sd)
		}
	}
	// Constant columns must not divide by zero.
	X := [][]float64{{5}, {5}, {5}}
	cd, _ := NewDataset([]string{"c"}, nil, X, []float64{1, 2, 3})
	cs := FitStandardizer(cd)
	out := cs.Apply(cd)
	if math.IsNaN(out.X[0][0]) || math.IsInf(out.X[0][0], 0) {
		t.Fatal("constant column produced NaN/Inf")
	}
}

func TestDiscretizer(t *testing.T) {
	col := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	dz := FitDiscretizer(col, 4)
	if dz.NumBins() != 4 {
		t.Fatalf("bins = %d", dz.NumBins())
	}
	if dz.Bin(0) != 0 {
		t.Fatalf("Bin(0) = %d", dz.Bin(0))
	}
	if dz.Bin(100) != 3 {
		t.Fatalf("Bin(100) = %d", dz.Bin(100))
	}
	// Monotone binning.
	prev := -1
	for v := 0.0; v <= 9; v += 0.5 {
		b := dz.Bin(v)
		if b < prev {
			t.Fatalf("binning not monotone at %v", v)
		}
		prev = b
	}
}

func TestDiscretizerConstantColumn(t *testing.T) {
	dz := FitDiscretizer([]float64{7, 7, 7}, 4)
	if dz.NumBins() < 1 {
		t.Fatal("no bins for constant column")
	}
	if dz.Bin(7) >= dz.NumBins() {
		t.Fatal("bin out of range")
	}
}

func TestInfoGainFindsSignal(t *testing.T) {
	rng := stats.NewRNG(2)
	n := 400
	X := make([][]float64, n)
	Y := make([]float64, n)
	for i := range X {
		signal := rng.Normal(0, 1)
		noise := rng.Normal(0, 1)
		X[i] = []float64{noise, signal}
		if signal > 0 {
			Y[i] = 1
		}
	}
	d, _ := NewDataset([]string{"noise", "signal"}, []string{"a", "b"}, X, Y)
	gains := InfoGain(d, 8)
	if gains[1] <= gains[0] {
		t.Fatalf("info gain failed to rank signal above noise: %v", gains)
	}
	if gains[1] < 0.5 {
		t.Fatalf("signal gain too low: %v", gains[1])
	}
	top := SelectTopK(gains, 1)
	if len(top) != 1 || top[0] != 1 {
		t.Fatalf("SelectTopK = %v", top)
	}
}

func TestInfoGainRegressionDataset(t *testing.T) {
	d, _ := NewDataset([]string{"x"}, nil, [][]float64{{1}}, []float64{2})
	gains := InfoGain(d, 4)
	if len(gains) != 1 || gains[0] != 0 {
		t.Fatalf("regression info gain = %v", gains)
	}
}

func TestProjectColumns(t *testing.T) {
	d := linearDataset(20, stats.NewRNG(3))
	p := ProjectColumns(d, []int{1})
	if p.P() != 1 || p.AttrNames[0] != "x1" {
		t.Fatalf("projected = %v", p.AttrNames)
	}
	if p.X[5][0] != d.X[5][1] {
		t.Fatal("projection values wrong")
	}
	if p.N() != d.N() {
		t.Fatal("projection dropped rows")
	}
}

func TestSelectTopKBounds(t *testing.T) {
	if got := SelectTopK([]float64{1, 2}, 10); len(got) != 2 {
		t.Fatalf("overlong k = %v", got)
	}
	if got := SelectTopK(nil, 3); len(got) != 0 {
		t.Fatalf("empty scores = %v", got)
	}
}
