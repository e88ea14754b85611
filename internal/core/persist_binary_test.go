package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/ml"
)

// TestModelBinaryRoundTrip trains a forest model, saves it in both formats,
// and asserts the binary-loaded model is an exact stand-in: identical scores
// on corpus apps and an identical JSON re-serialization.
func TestModelBinaryRoundTrip(t *testing.T) {
	tb := NewTestbed(getCorpus(t))
	m, err := Train(context.Background(), tb, TrainConfig{Kind: KindForest, Folds: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	var jbuf, bbuf bytes.Buffer
	if err := m.Save(&jbuf); err != nil {
		t.Fatal(err)
	}
	if err := m.SaveBinary(&bbuf); err != nil {
		t.Fatal(err)
	}
	if bbuf.Len() >= jbuf.Len() {
		t.Errorf("binary model (%d bytes) is not smaller than JSON (%d bytes)", bbuf.Len(), jbuf.Len())
	}
	jm, err := LoadModel(bytes.NewReader(jbuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	bm, err := LoadModel(bytes.NewReader(bbuf.Bytes()))
	if err != nil {
		t.Fatalf("binary load: %v", err)
	}

	// Scores must be byte-identical between the two load paths.
	for _, a := range testCorpus.Apps[:10] {
		rj, err := json.Marshal(jm.Score(a.App.Name, a.Features))
		if err != nil {
			t.Fatal(err)
		}
		rb, err := json.Marshal(bm.Score(a.App.Name, a.Features))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rj, rb) {
			t.Fatalf("%s: binary-loaded model scores differently from JSON-loaded model", a.App.Name)
		}
	}

	// Both loaded models re-save to the same JSON: the binary container
	// loses nothing a JSON round trip would keep.
	var fromJSON, fromBin bytes.Buffer
	if err := jm.Save(&fromJSON); err != nil {
		t.Fatal(err)
	}
	if err := bm.Save(&fromBin); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromJSON.Bytes(), fromBin.Bytes()) {
		t.Error("binary-loaded model re-serializes to different JSON than JSON-loaded model")
	}
	if !bytes.Equal(fromJSON.Bytes(), jbuf.Bytes()) {
		t.Error("JSON-loaded model re-serializes to different JSON than it was loaded from")
	}

	// And the binary form itself round-trips byte-identically.
	var again bytes.Buffer
	if err := bm.SaveBinary(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), bbuf.Bytes()) {
		t.Error("binary-loaded model re-serializes to different binary bytes")
	}
}

// savedBinaryModel trains a fast ZeroR model and returns its binary bytes.
func savedBinaryModel(t *testing.T) []byte {
	t.Helper()
	tb := NewTestbed(getCorpus(t))
	m, err := Train(context.Background(), tb, TrainConfig{Kind: KindZeroR, Folds: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.SaveBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLoadModelBinaryCorrupt(t *testing.T) {
	raw := savedBinaryModel(t)
	if _, err := LoadModel(bytes.NewReader(raw)); err != nil {
		t.Fatalf("pristine binary model refused: %v", err)
	}

	cases := map[string][]byte{
		"truncated meta length": raw[:6],
		"truncated meta":        raw[:12],
		"truncated classifier":  raw[:len(raw)-3],
		"trailing garbage":      append(append([]byte(nil), raw...), 0xff),
	}
	garbledMeta := append([]byte(nil), raw...)
	garbledMeta[9] ^= 0xff // inside the meta JSON
	cases["garbled meta"] = garbledMeta
	for name, data := range cases {
		if _, err := LoadModel(bytes.NewReader(data)); !errors.Is(err, ErrModelCorrupt) {
			t.Errorf("%s: err = %v, want ErrModelCorrupt", name, err)
		}
	}

	// A future container version is a version error, not corruption.
	future := append([]byte(nil), raw...)
	future[3] = '9'
	_, err := LoadModel(bytes.NewReader(future))
	if err == nil || !strings.Contains(err.Error(), "unsupported binary model version") {
		t.Errorf("future version: err = %v, want unsupported-version error", err)
	}
}

// TestLoadModelRejectsOutOfRangeSplit: a tree classifier that splits on a
// column past its hypothesis' feature list would index past every row it
// scores, so LoadModel refuses it with ErrModelCorrupt in both formats,
// for a tree, a forest and AdaBoost stumps alike. A split on the last
// column loads and scores.
func TestLoadModelRejectsOutOfRangeSplit(t *testing.T) {
	const leaf = `{"leaf":true,"probs":[0.25,0.75]}`
	for _, attr := range []int{99, len(metrics.FeatureNames) - 1} {
		tree := fmt.Sprintf(`{"k":2,"root":{"attr":%d,"threshold":0.5,"left":%s,"right":%s}}`, attr, leaf, leaf)
		for kind, payload := range map[string]string{
			"tree":   tree,
			"forest": `{"k":2,"trees":[` + tree + `]}`,
			"boost":  `{"k":2,"alphas":[1],"stumps":[` + tree + `]}`,
		} {
			clf, err := ml.UnmarshalClassifier([]byte(`{"kind":"` + kind + `","payload":` + payload + `}`))
			if err != nil {
				t.Fatalf("%s attr %d: %v", kind, attr, err)
			}
			m := &Model{
				Transformer: DefaultTransformer(),
				Hypotheses: []*HypothesisModel{{
					Hypothesis: Hypothesis{Name: "split"},
					Classifier: clf,
					Features:   append([]string(nil), metrics.FeatureNames...),
				}},
			}
			for format, save := range map[string]func(io.Writer) error{"json": m.Save, "binary": m.SaveBinary} {
				var buf bytes.Buffer
				if err := save(&buf); err != nil {
					t.Fatal(err)
				}
				loaded, err := LoadModel(&buf)
				if attr < len(metrics.FeatureNames) {
					if err != nil {
						t.Fatalf("%s %s split on the last column refused: %v", format, kind, err)
					}
					loaded.Score("x", metrics.FeatureVector{})
					continue
				}
				if !errors.Is(err, ErrModelCorrupt) {
					t.Errorf("%s %s split on column %d of %d: err = %v, want ErrModelCorrupt",
						format, kind, attr, len(metrics.FeatureNames), err)
				}
			}
		}
	}
}
