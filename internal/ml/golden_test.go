package ml

// Tree-model golden tests: models fitted on a fixed synthetic dataset are
// pinned in testdata — their serialized forms (locks bestSplit and Fit
// determinism and both codecs' bytes across refactors) and their predicted
// probabilities on fixed probe rows (locks the inference path to
// bit-identical outputs). Regenerate deliberately with
//
//	go test ./internal/ml -run Golden -update-forest-golden
//
// only when the training algorithm itself is meant to change.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/stats"
)

var updateForestGolden = flag.Bool("update-forest-golden", false, "rewrite the tree-model golden files from current output")

func goldenForestData() *Dataset {
	rng := stats.NewRNG(0x9014d)
	const n, p = 240, 12
	attrs := make([]string, p)
	for j := range attrs {
		attrs[j] = fmt.Sprintf("a%02d", j)
	}
	X := make([][]float64, n)
	Y := make([]float64, n)
	for i := range X {
		class := i % 2
		row := make([]float64, p)
		for j := range row {
			shift := 0.0
			if class == 1 && j%2 == 0 {
				shift = 1.2
			}
			row[j] = rng.Normal(shift, 1)
		}
		X[i] = row
		Y[i] = float64(class)
	}
	d, err := NewDataset(attrs, []string{"no", "yes"}, X, Y)
	if err != nil {
		panic(err)
	}
	return d
}

func goldenProbeRows() [][]float64 {
	rng := stats.NewRNG(0x9906e5)
	rows := make([][]float64, 8)
	for i := range rows {
		row := make([]float64, 12)
		for j := range row {
			row[j] = rng.Normal(0, 1.5)
		}
		rows[i] = row
	}
	return rows
}

func TestForestGolden(t *testing.T) {
	rf := &RandomForest{Trees: 15, MaxDepth: 8, Seed: 0x5afe, Jobs: 1}
	if err := rf.Fit(goldenForestData()); err != nil {
		t.Fatal(err)
	}
	modelPath := filepath.Join("testdata", "forest.golden.json")
	probsPath := filepath.Join("testdata", "forest_probs.golden.json")

	blob, err := MarshalClassifier(rf)
	if err != nil {
		t.Fatal(err)
	}
	probes := goldenProbeRows()
	probs := make([][]float64, len(probes))
	for i, row := range probes {
		probs[i] = rf.PredictProba(row)
	}
	probsBlob, err := json.MarshalIndent(probs, "", " ")
	if err != nil {
		t.Fatal(err)
	}

	if *updateForestGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(modelPath, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(probsPath, probsBlob, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	wantModel, err := os.ReadFile(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, wantModel) {
		t.Errorf("fitted forest serialization drifted from golden (%d vs %d bytes): training is no longer bit-identical",
			len(blob), len(wantModel))
	}
	wantProbs, err := os.ReadFile(probsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(probsBlob, wantProbs) {
		t.Errorf("forest probe predictions drifted from golden: inference is no longer bit-identical")
	}

	// A forest restored from its serialized form must predict identically
	// to the fitted original — the load path (however it represents trees
	// internally) is an exact stand-in for the trained one.
	loaded, err := UnmarshalClassifier(blob)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range probes {
		got := loaded.PredictProba(row)
		for c := range got {
			if got[c] != probs[i][c] {
				t.Fatalf("probe %d class %d: loaded forest predicts %v, fitted predicts %v", i, c, got[c], probs[i][c])
			}
		}
	}
}

// TestTreeModelGolden pins every tree model in both codecs: a
// DecisionTree, an AdaBoost and TestForestGolden's forest, fitted on
// goldenForestData, as JSON and binary blobs with their probe predictions.
// Each blob must also decode to a model that predicts the probes exactly as
// the fitted one does and re-encodes to the same bytes.
func TestTreeModelGolden(t *testing.T) {
	probes := goldenProbeRows()
	codecs := []struct {
		ext    string
		encode func(Classifier) ([]byte, error)
		decode func([]byte) (Classifier, error)
	}{
		{".golden.json", MarshalClassifier, UnmarshalClassifier},
		{".golden.bin", MarshalClassifierBinary, UnmarshalClassifierBinary},
	}
	for _, tc := range []struct {
		name string
		c    Classifier
	}{
		{"tree", &DecisionTree{MaxDepth: 4}},
		{"boost", &AdaBoost{Rounds: 10, Seed: 5}},
		{"forest", &RandomForest{Trees: 15, MaxDepth: 8, Seed: 0x5afe, Jobs: 1}},
	} {
		if err := tc.c.Fit(goldenForestData()); err != nil {
			t.Fatal(err)
		}
		probs := make([][]float64, len(probes))
		for i, row := range probes {
			probs[i] = tc.c.PredictProba(row)
		}
		probsBlob, err := json.MarshalIndent(probs, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		matchGolden(t, tc.name+"_probs.golden.json", probsBlob)
		for _, cd := range codecs {
			blob, err := cd.encode(tc.c)
			if err != nil {
				t.Fatal(err)
			}
			want := matchGolden(t, tc.name+cd.ext, blob)
			back, err := cd.decode(want)
			if err != nil {
				t.Fatalf("%s%s: %v", tc.name, cd.ext, err)
			}
			for i, row := range probes {
				if p := back.PredictProba(row); !reflect.DeepEqual(p, probs[i]) {
					t.Errorf("%s%s: decoded model predicts %v on probe %d, fitted predicts %v", tc.name, cd.ext, p, i, probs[i])
				}
			}
			if again, err := cd.encode(back); err != nil || !bytes.Equal(again, want) {
				t.Errorf("%s%s: decoded model does not re-encode to the same bytes (err %v)", tc.name, cd.ext, err)
			}
		}
	}
}

// matchGolden reports got differing from testdata/name, or rewrites the
// file under -update-forest-golden. It returns the golden bytes.
func matchGolden(t *testing.T, name string, got []byte) []byte {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateForestGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return got
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden (%d vs %d bytes): training or a codec is no longer bit-identical", path, len(got), len(want))
	}
	return want
}
