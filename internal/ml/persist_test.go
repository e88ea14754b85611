package ml

import (
	"errors"
	"testing"

	"repro/internal/stats"
)

// roundTrip marshals, unmarshals, and checks prediction agreement on test
// rows.
func roundTrip(t *testing.T, c Classifier, test *Dataset) {
	t.Helper()
	data, err := MarshalClassifier(c)
	if err != nil {
		t.Fatalf("marshal %s: %v", c.Name(), err)
	}
	restored, err := UnmarshalClassifier(data)
	if err != nil {
		t.Fatalf("unmarshal %s: %v", c.Name(), err)
	}
	for i, row := range test.X {
		if got, want := restored.PredictClass(row), c.PredictClass(row); got != want {
			t.Fatalf("%s row %d: restored predicts %d, original %d", c.Name(), i, got, want)
		}
	}
	for _, row := range test.X[:5] {
		a, b := c.PredictProba(row), restored.PredictProba(row)
		for k := range a {
			if diff := a[k] - b[k]; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("%s proba mismatch: %v vs %v", c.Name(), a, b)
			}
		}
	}
}

func TestPersistAllKinds(t *testing.T) {
	rng := stats.NewRNG(1)
	train := linearDataset(200, rng)
	test := linearDataset(50, rng)
	classifiers := []Classifier{
		&ZeroR{},
		&GaussianNB{},
		&Logistic{Epochs: 50},
		&DecisionTree{},
		&RandomForest{Trees: 5, Seed: 3},
		&KNN{K: 5},
		&AdaBoost{Rounds: 8, Seed: 6},
	}
	for _, c := range classifiers {
		if err := c.Fit(train); err != nil {
			t.Fatalf("fit %s: %v", c.Name(), err)
		}
		roundTrip(t, c, test)
	}
}

func TestPersistUnfittedErrors(t *testing.T) {
	for _, c := range []Classifier{&Logistic{}, &DecisionTree{}, &KNN{}} {
		if _, err := MarshalClassifier(c); err == nil {
			t.Errorf("unfitted %T marshaled", c)
		}
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	if _, err := UnmarshalClassifier([]byte("{oops")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := UnmarshalClassifier([]byte(`{"kind":"quantum","payload":{}}`)); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// TestUnmarshalRejectsMisshapenPayloads: the non-tree payloads carry
// dimensions that prediction indexes by (class count, weight rows, per-class
// means and variances, neighbour rows). A payload whose dimensions disagree
// decodes to a classifier that panics on its first prediction, so decode
// refuses it with ErrBinaryCorrupt, directly and through the binary
// container's JSON fallback.
func TestUnmarshalRejectsMisshapenPayloads(t *testing.T) {
	good := map[string]string{
		"zeror":      `{"majority":1,"k":2,"counts":[3,4]}`,
		"naivebayes": `{"k":2,"priors":[0.5,0.5],"mean":[[0,1],[1,0]],"var":[[1,1],[1,1]]}`,
		"logistic":   `{"k":2,"w":[[0,1,2],[0,2,1]],"mean":[0,0],"std":[1,1]}`,
		"knn":        `{"k":1,"mean":[0],"std":[1],"attrs":["a"],"classes":["no","yes"],"x":[[0],[1]],"y":[0,1]}`,
	}
	bad := map[string][]string{
		"zeror": {
			`{"majority":0,"k":0,"counts":[]}`,
			`{"majority":1,"k":2,"counts":[3]}`,
			`{"majority":2,"k":2,"counts":[3,4]}`,
			`{"majority":-1,"k":2,"counts":[3,4]}`,
		},
		"naivebayes": {
			`{"k":0,"priors":[],"mean":[],"var":[]}`,
			`{"k":2,"priors":[0.5],"mean":[[0,1],[1,0]],"var":[[1,1],[1,1]]}`,
			`{"k":2,"priors":[0.5,0.5],"mean":[[0,1]],"var":[[1,1],[1,1]]}`,
			`{"k":2,"priors":[0.5,0.5],"mean":[[0,1],[1,0]],"var":[[1,1],[1]]}`,
			`{"k":2,"priors":[0.5,0.5],"mean":[[0,1],[1]],"var":[[1,1],[1]]}`,
		},
		"logistic": {
			`{"k":1,"w":[[0,1,2],[0,2,1]],"mean":[0,0],"std":[1,1]}`,
			`{"k":3,"w":[[0,1,2],[0,2,1]],"mean":[0,0],"std":[1,1]}`,
			`{"k":2,"w":[[0,1,2],[0,2]],"mean":[0,0],"std":[1,1]}`,
			`{"k":2,"w":[[0,1,2],[0,2,1]],"mean":[0,0],"std":[1]}`,
			`{"k":2,"w":[[],[]],"mean":[],"std":[]}`,
		},
		"knn": {
			`{"k":0,"mean":[0],"std":[1],"attrs":["a"],"classes":["no","yes"],"x":[[0],[1]],"y":[0,1]}`,
			`{"k":1,"mean":[0],"std":[1],"attrs":["a"],"classes":[],"x":[[0],[1]],"y":[0,1]}`,
			`{"k":1,"mean":[0],"std":[1],"attrs":["a"],"classes":["no","yes"],"x":[],"y":[]}`,
			`{"k":1,"mean":[],"std":[1],"attrs":["a"],"classes":["no","yes"],"x":[[0],[1]],"y":[0,1]}`,
			`{"k":1,"mean":[0],"std":[1],"attrs":["a"],"classes":["no","yes"],"x":[[0],[1]],"y":[0,2]}`,
		},
	}
	for kind, payload := range good {
		if _, err := UnmarshalClassifier([]byte(`{"kind":"` + kind + `","payload":` + payload + `}`)); err != nil {
			t.Errorf("%s: consistent payload refused: %v", kind, err)
		}
	}
	for kind, payloads := range bad {
		for _, payload := range payloads {
			blob := []byte(`{"kind":"` + kind + `","payload":` + payload + `}`)
			if c, err := UnmarshalClassifier(blob); !errors.Is(err, ErrBinaryCorrupt) {
				t.Errorf("%s %s: UnmarshalClassifier = %v, %v; want ErrBinaryCorrupt", kind, payload, c, err)
			}
			if c, err := UnmarshalClassifierBinary(append([]byte{binTagJSON}, blob...)); !errors.Is(err, ErrBinaryCorrupt) {
				t.Errorf("%s %s: UnmarshalClassifierBinary = %v, %v; want ErrBinaryCorrupt", kind, payload, c, err)
			}
		}
	}
}

// TestCheckShape: every fitted kind passes at its own class count and
// width and fails at another class count. Naive Bayes, logistic and kNN
// fix their input width exactly; trees only bound it from below by their
// highest split column; ZeroR reads no columns.
func TestCheckShape(t *testing.T) {
	train := linearDataset(100, stats.NewRNG(2))
	for _, tc := range []struct {
		c     Classifier
		exact bool
	}{
		{&ZeroR{}, false},
		{&GaussianNB{}, true},
		{&Logistic{Epochs: 20}, true},
		{&KNN{K: 3}, true},
		{&DecisionTree{}, false},
		{&RandomForest{Trees: 3, Seed: 1}, false},
		{&AdaBoost{Rounds: 3, Seed: 1}, false},
	} {
		if err := tc.c.Fit(train); err != nil {
			t.Fatal(err)
		}
		if err := CheckShape(tc.c, 2, train.P()); err != nil {
			t.Errorf("%s: own shape refused: %v", tc.c.Name(), err)
		}
		if err := CheckShape(tc.c, 3, train.P()); err == nil {
			t.Errorf("%s: 3 classes accepted", tc.c.Name())
		}
		if err := CheckShape(tc.c, 2, train.P()+1); (err != nil) != tc.exact {
			t.Errorf("%s: one extra feature column: err = %v", tc.c.Name(), err)
		}
	}
	if err := CheckShape(&ZeroR{K: 2}, 2, 0); err != nil {
		t.Errorf("ZeroR with no columns: %v", err)
	}
	tree := &DecisionTree{k: 2, flat: &flatForest{k: 2, roots: []int32{0},
		nodes: []flatNode{{attr: 4, right: 2}, {attr: flatLeaf}, {attr: flatLeaf}}, probs: []float64{1, 0}}}
	if err := CheckShape(tree, 2, 4); err == nil {
		t.Error("tree splitting on column 4 of 4 accepted")
	}
}

// TestUnmarshalRejectsMalformedTrees: JSON tree payloads get the binary
// codec's structural checks, so a tree, forest or AdaBoost stump that is
// missing a node or carries a short leaf is refused at decode (directly
// and through the binary container's JSON fallback) instead of panicking
// at load or at the first prediction. A split on an attribute past the
// row width decodes; SplitWidth reports it for the model loader to refuse.
func TestUnmarshalRejectsMalformedTrees(t *testing.T) {
	const leaf = `{"leaf":true,"probs":[0.25,0.75]}`
	roots := map[string]string{
		"nil root":      `null`,
		"missing child": `{"attr":0,"threshold":1,"left":` + leaf + `}`,
		"short leaf":    `{"leaf":true,"probs":[1]}`,
		"negative attr": `{"attr":-1,"threshold":1,"left":` + leaf + `,"right":` + leaf + `}`,
	}
	for name, root := range roots {
		tree := `{"k":2,"root":` + root + `}`
		for kind, payload := range map[string]string{
			"tree":   tree,
			"forest": `{"k":2,"trees":[` + tree + `]}`,
			"boost":  `{"k":2,"alphas":[1],"stumps":[` + tree + `]}`,
		} {
			blob := []byte(`{"kind":"` + kind + `","payload":` + payload + `}`)
			if c, err := UnmarshalClassifier(blob); !errors.Is(err, ErrBinaryCorrupt) {
				t.Errorf("%s %s: UnmarshalClassifier = %v, %v; want ErrBinaryCorrupt", name, kind, c, err)
			}
			if c, err := UnmarshalClassifierBinary(append([]byte{binTagJSON}, blob...)); !errors.Is(err, ErrBinaryCorrupt) {
				t.Errorf("%s %s: UnmarshalClassifierBinary = %v, %v; want ErrBinaryCorrupt", name, kind, c, err)
			}
		}
	}
	if _, err := UnmarshalClassifier([]byte(`{"kind":"boost","payload":{"k":2,"alphas":[1,2],"stumps":[{"k":2,"root":` + leaf + `}]}}`)); !errors.Is(err, ErrBinaryCorrupt) {
		t.Errorf("boost with more alphas than stumps: err = %v, want ErrBinaryCorrupt", err)
	}

	wide := `{"k":2,"root":{"attr":99,"threshold":0,"left":` + leaf + `,"right":` + leaf + `}}`
	for kind, payload := range map[string]string{
		"tree":   wide,
		"forest": `{"k":2,"trees":[` + wide + `]}`,
		"boost":  `{"k":2,"alphas":[1],"stumps":[` + wide + `]}`,
	} {
		c, err := UnmarshalClassifier([]byte(`{"kind":"` + kind + `","payload":` + payload + `}`))
		if err != nil {
			t.Fatalf("%s split on attribute 99: %v", kind, err)
		}
		if w := SplitWidth(c); w != 100 {
			t.Errorf("%s: SplitWidth = %d, want 100", kind, w)
		}
		bin, err := MarshalClassifierBinary(c)
		if err != nil {
			t.Fatal(err)
		}
		back, err := UnmarshalClassifierBinary(bin)
		if err != nil {
			t.Fatal(err)
		}
		if w := SplitWidth(back); w != 100 {
			t.Errorf("%s binary: SplitWidth = %d, want 100", kind, w)
		}
	}
}
