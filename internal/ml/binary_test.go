package ml

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func fittedGoldenForest(t testing.TB) *RandomForest {
	t.Helper()
	rf := &RandomForest{Trees: 9, MaxDepth: 6, Seed: 7, Jobs: 1}
	if err := rf.Fit(goldenForestData()); err != nil {
		t.Fatal(err)
	}
	return rf
}

func TestBinaryForestRoundTrip(t *testing.T) {
	rf := fittedGoldenForest(t)
	blob, err := MarshalClassifierBinary(rf)
	if err != nil {
		t.Fatal(err)
	}
	if blob[0] != binTagForest {
		t.Fatalf("forest blob tag = 0x%02x, want 0x%02x", blob[0], binTagForest)
	}
	loaded, err := UnmarshalClassifierBinary(blob)
	if err != nil {
		t.Fatal(err)
	}
	rf2, ok := loaded.(*RandomForest)
	if !ok {
		t.Fatalf("loaded %T, want *RandomForest", loaded)
	}
	for i, row := range goldenProbeRows() {
		want, got := rf.PredictProba(row), rf2.PredictProba(row)
		for c := range want {
			if got[c] != want[c] {
				t.Fatalf("probe %d class %d: binary-loaded predicts %v, fitted predicts %v", i, c, got[c], want[c])
			}
		}
		if rf.PredictClass(row) != rf2.PredictClass(row) {
			t.Fatalf("probe %d: class decision differs after binary round trip", i)
		}
	}

	// The binary-loaded forest must re-serialize to the exact JSON of the
	// fitted forest: the binary form loses nothing.
	wantJSON, err := MarshalClassifier(rf)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := MarshalClassifier(rf2)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(wantJSON) {
		t.Error("binary-loaded forest re-serializes to different JSON than the fitted forest")
	}
	if len(blob) >= len(wantJSON) {
		t.Errorf("binary forest blob (%d bytes) is not smaller than its JSON form (%d bytes)", len(blob), len(wantJSON))
	}
}

func TestBinaryTreeRoundTrip(t *testing.T) {
	tr := &DecisionTree{MaxDepth: 6}
	if err := tr.Fit(goldenForestData()); err != nil {
		t.Fatal(err)
	}
	blob, err := MarshalClassifierBinary(tr)
	if err != nil {
		t.Fatal(err)
	}
	if blob[0] != binTagTree {
		t.Fatalf("tree blob tag = 0x%02x, want 0x%02x", blob[0], binTagTree)
	}
	loaded, err := UnmarshalClassifierBinary(blob)
	if err != nil {
		t.Fatal(err)
	}
	tr2, ok := loaded.(*DecisionTree)
	if !ok {
		t.Fatalf("loaded %T, want *DecisionTree", loaded)
	}
	for i, row := range goldenProbeRows() {
		want, got := tr.PredictProba(row), tr2.PredictProba(row)
		for c := range want {
			if got[c] != want[c] {
				t.Fatalf("probe %d class %d: %v vs %v", i, c, got[c], want[c])
			}
		}
	}
}

func TestBinaryJSONFallback(t *testing.T) {
	lg := &Logistic{Epochs: 40}
	if err := lg.Fit(goldenForestData()); err != nil {
		t.Fatal(err)
	}
	blob, err := MarshalClassifierBinary(lg)
	if err != nil {
		t.Fatal(err)
	}
	if blob[0] != binTagJSON {
		t.Fatalf("logistic blob tag = 0x%02x, want JSON fallback 0x%02x", blob[0], binTagJSON)
	}
	loaded, err := UnmarshalClassifierBinary(blob)
	if err != nil {
		t.Fatal(err)
	}
	lg2, ok := loaded.(*Logistic)
	if !ok {
		t.Fatalf("loaded %T, want *Logistic", loaded)
	}
	for i, row := range goldenProbeRows() {
		want, got := lg.PredictProba(row), lg2.PredictProba(row)
		for c := range want {
			if got[c] != want[c] {
				t.Fatalf("probe %d class %d: %v vs %v", i, c, got[c], want[c])
			}
		}
	}
}

func TestBinaryCorruptBlobs(t *testing.T) {
	rf := fittedGoldenForest(t)
	blob, err := MarshalClassifierBinary(rf)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":               {},
		"unknown tag":         {0x7f, 1, 2, 3},
		"tag only":            blob[:1],
		"truncated header":    blob[:5],
		"truncated mid-nodes": blob[:len(blob)/2],
		"truncated tail":      blob[:len(blob)-3],
		"trailing bytes":      append(append([]byte(nil), blob...), 0xee),
	}
	for name, data := range cases {
		if _, err := UnmarshalClassifierBinary(data); !errors.Is(err, ErrBinaryCorrupt) {
			t.Errorf("%s: err = %v, want ErrBinaryCorrupt", name, err)
		}
	}

	// An implausible length prefix must be refused before it drives an
	// allocation. Bytes 5..9 hold the root count.
	huge := append([]byte(nil), blob...)
	huge[5], huge[6], huge[7], huge[8] = 0xff, 0xff, 0xff, 0xff
	if _, err := UnmarshalClassifierBinary(huge); !errors.Is(err, ErrBinaryCorrupt) {
		t.Errorf("huge root count: err = %v, want ErrBinaryCorrupt", err)
	}
	// So must a count the rest of the blob cannot hold: 2^26-1 nodes would
	// be a 1 GiB arena behind a 17-byte blob.
	short := []byte{binTagForest, 2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0x03}
	if _, err := UnmarshalClassifierBinary(short); !errors.Is(err, ErrBinaryCorrupt) || !strings.Contains(err.Error(), "implausible node count") {
		t.Errorf("node count past the blob: err = %v, want an implausible-count ErrBinaryCorrupt", err)
	}
}

func TestFlatForestValidate(t *testing.T) {
	leaf := func(off int32) flatNode { return flatNode{attr: flatLeaf, right: off} }
	cases := map[string]*flatForest{
		"bad class count": {k: 0, roots: []int32{0}, nodes: []flatNode{leaf(0)}},
		"no trees":        {k: 2, nodes: []flatNode{leaf(0)}, probs: []float64{1, 0}},
		"root out of range": {k: 2, roots: []int32{5},
			nodes: []flatNode{leaf(0)}, probs: []float64{1, 0}},
		"leaf probs out of range": {k: 2, roots: []int32{0},
			nodes: []flatNode{leaf(1)}, probs: []float64{1, 0}},
		"negative attr": {k: 2, roots: []int32{0},
			nodes: []flatNode{{attr: -7, right: 2}, leaf(0), leaf(0)},
			probs: []float64{1, 0}},
		"interior without left child": {k: 2, roots: []int32{2},
			nodes: []flatNode{leaf(0), leaf(0), {attr: 0, right: 1}},
			probs: []float64{1, 0}},
		"child cycle": {k: 2, roots: []int32{0},
			nodes: []flatNode{{attr: 0, right: 0}, leaf(0)},
			probs: []float64{1, 0}},
		// Node 2 is both node 0's right child and node 1's left: a chain of
		// such nodes expands exponentially when rendered as JSON.
		"shared subtree": {k: 2, roots: []int32{0},
			nodes: []flatNode{{attr: 0, right: 2}, {attr: 0, right: 3}, leaf(0), leaf(0)},
			probs: []float64{1, 0}},
		"shared tree": {k: 2, roots: []int32{0, 0},
			nodes: []flatNode{leaf(0)}, probs: []float64{1, 0}},
		"unreachable node": {k: 2, roots: []int32{0},
			nodes: []flatNode{leaf(0), leaf(0)}, probs: []float64{1, 0}},
	}
	for name, ff := range cases {
		if err := ff.validate(); !errors.Is(err, ErrBinaryCorrupt) {
			t.Errorf("%s: err = %v, want ErrBinaryCorrupt", name, err)
		}
	}
	good := &flatForest{k: 2, roots: []int32{0},
		nodes: []flatNode{{attr: 0, thr: 0.5, right: 2}, leaf(0), leaf(0)},
		probs: []float64{1, 0}}
	if err := good.validate(); err != nil {
		t.Errorf("valid forest rejected: %v", err)
	}
}

// BenchmarkBestSplit pins the cost of one split search over a realistic node
// (240 rows, 12 attributes) — the inner loop of every tree fit. The
// sortFloats -> sort.Float64s swap and the scratch-buffer reuse must not
// regress it.
func BenchmarkBestSplit(b *testing.B) {
	d := goldenForestData()
	tr := &DecisionTree{k: d.NumClasses()}
	idx := make([]int, d.N())
	for i := range idx {
		idx[i] = i
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		attr, _, _ := tr.bestSplit(d, idx)
		if attr < 0 {
			b.Fatal("no split found")
		}
	}
}

// FuzzClassifierDecode: UnmarshalClassifierBinary never panics on
// arbitrary bytes, and a blob it accepts re-encodes to bytes that decode
// and re-encode identically (encode∘decode is a fixed point after one
// normalizing pass).
func FuzzClassifierDecode(f *testing.F) {
	ff := fittedGoldenForest(f)
	leaf := &flatForest{k: 2, roots: []int32{0}, nodes: []flatNode{{attr: flatLeaf}}, probs: []float64{0.5, 0.5}}
	for _, c := range []Classifier{ff, &DecisionTree{k: 2, flat: leaf}} {
		blob, err := MarshalClassifierBinary(c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add(append([]byte{binTagJSON}, `{"kind":"zeror","payload":{"majority":1,"k":2,"counts":[3,4]}}`...))
	f.Add(append([]byte{binTagJSON}, `{"kind":"boost","payload":{"k":2,"alphas":[1],"stumps":[{"k":2,"root":{"leaf":true,"probs":[1,0]}}]}}`...))
	f.Add([]byte{binTagForest, 2, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := UnmarshalClassifierBinary(data)
		if err != nil {
			return
		}
		first, err := MarshalClassifierBinary(c)
		if err != nil {
			t.Fatalf("accepted blob does not re-encode: %v", err)
		}
		again, err := UnmarshalClassifierBinary(first)
		if err != nil {
			t.Fatalf("re-encoded blob does not decode: %v", err)
		}
		second, err := MarshalClassifierBinary(again)
		if err != nil {
			t.Fatalf("re-decoded classifier does not encode: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("encode∘decode not identical:\n%x\n%x", first, second)
		}
	})
}
