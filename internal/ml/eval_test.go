package ml

import (
	"math"
	"strings"
	"testing"

	"repro/internal/stats"
)

func TestConfusionMatrixMetrics(t *testing.T) {
	cm := NewConfusionMatrix([]string{"neg", "pos"})
	// 50 TN, 10 FP, 5 FN, 35 TP
	cm.Counts[0][0] = 50
	cm.Counts[0][1] = 10
	cm.Counts[1][0] = 5
	cm.Counts[1][1] = 35
	if cm.Total() != 100 {
		t.Fatalf("total = %d", cm.Total())
	}
	if acc := cm.Accuracy(); acc != 0.85 {
		t.Fatalf("accuracy = %v", acc)
	}
	if p := cm.Precision(1); math.Abs(p-35.0/45) > 1e-12 {
		t.Fatalf("precision = %v", p)
	}
	if r := cm.Recall(1); math.Abs(r-35.0/40) > 1e-12 {
		t.Fatalf("recall = %v", r)
	}
	f1 := cm.F1(1)
	wantP, wantR := 35.0/45, 35.0/40
	if math.Abs(f1-2*wantP*wantR/(wantP+wantR)) > 1e-12 {
		t.Fatalf("f1 = %v", f1)
	}
	s := cm.String()
	if !strings.Contains(s, "neg") || !strings.Contains(s, "50") {
		t.Fatalf("matrix string = %q", s)
	}
}

func TestPrecisionRecallEdgeCases(t *testing.T) {
	cm := NewConfusionMatrix([]string{"a", "b"})
	if cm.Precision(1) != 0 || cm.Recall(1) != 0 || cm.F1(1) != 0 {
		t.Fatal("empty matrix metrics should be 0")
	}
}

func TestAUCPerfectAndRandom(t *testing.T) {
	labels := []int{0, 0, 1, 1}
	if auc := AUC(labels, []float64{0.1, 0.2, 0.8, 0.9}); auc != 1 {
		t.Fatalf("perfect AUC = %v", auc)
	}
	if auc := AUC(labels, []float64{0.9, 0.8, 0.2, 0.1}); auc != 0 {
		t.Fatalf("inverted AUC = %v", auc)
	}
	// Ties: all equal scores -> 0.5.
	if auc := AUC(labels, []float64{0.5, 0.5, 0.5, 0.5}); auc != 0.5 {
		t.Fatalf("tied AUC = %v", auc)
	}
	// Degenerate: one class only.
	if auc := AUC([]int{1, 1}, []float64{0.1, 0.9}); auc != 0.5 {
		t.Fatalf("single-class AUC = %v", auc)
	}
}

func TestCrossValidate(t *testing.T) {
	d := linearDataset(300, stats.NewRNG(1))
	res, err := CrossValidate(func() Classifier { return &GaussianNB{} }, d, 10, stats.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Folds != 10 {
		t.Fatalf("folds = %d", res.Folds)
	}
	if res.Accuracy < 0.85 {
		t.Fatalf("CV accuracy = %v", res.Accuracy)
	}
	if res.Pooled.Total() != d.N() {
		t.Fatalf("pooled matrix covers %d/%d", res.Pooled.Total(), d.N())
	}
	if !strings.Contains(res.String(), "10-fold") {
		t.Fatalf("summary = %q", res.String())
	}
}

func TestCrossValidateBeatsBaseline(t *testing.T) {
	d := linearDataset(300, stats.NewRNG(3))
	base, err := CrossValidate(func() Classifier { return &ZeroR{} }, d, 5, stats.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := CrossValidate(func() Classifier { return &DecisionTree{} }, d, 5, stats.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	if tree.Accuracy <= base.Accuracy {
		t.Fatalf("tree %v should beat ZeroR %v", tree.Accuracy, base.Accuracy)
	}
}

func TestLinearRegressor(t *testing.T) {
	rng := stats.NewRNG(5)
	n := 300
	X := make([][]float64, n)
	Y := make([]float64, n)
	for i := range X {
		a, b := rng.Normal(0, 1), rng.Normal(0, 1)
		X[i] = []float64{a, b}
		Y[i] = 3 + 2*a - b + rng.Normal(0, 0.1)
	}
	d, err := NewDataset([]string{"a", "b"}, nil, X, Y)
	if err != nil {
		t.Fatal(err)
	}
	lr := &LinearRegressor{}
	if err := lr.Fit(d); err != nil {
		t.Fatal(err)
	}
	c := lr.Coeffs()
	if math.Abs(c[0]-3) > 0.1 || math.Abs(c[1]-2) > 0.1 || math.Abs(c[2]+1) > 0.1 {
		t.Fatalf("coeffs = %v", c)
	}
	m := EvaluateRegressor(lr, d)
	if m.R2 < 0.99 {
		t.Fatalf("R2 = %v", m.R2)
	}
	if m.RMSE > 0.2 || m.MAE > 0.2 {
		t.Fatalf("errors = %+v", m)
	}
}

func TestLinearRegressorRejectsClassification(t *testing.T) {
	d := linearDataset(10, stats.NewRNG(6))
	if err := (&LinearRegressor{}).Fit(d); err == nil {
		t.Fatal("classification dataset accepted")
	}
}

func TestRankFeatureWeights(t *testing.T) {
	fw := RankFeatureWeights([]string{"a", "b", "c"}, []float64{0.1, -5, 2})
	if fw[0].Name != "b" || fw[1].Name != "c" || fw[2].Name != "a" {
		t.Fatalf("ranking = %+v", fw)
	}
}
