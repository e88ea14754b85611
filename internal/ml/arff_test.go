package ml

// WriteARFF is the only ARFF path (trainctl -arff), so its bytes are pinned
// in testdata rather than read back by a parser. The golden files are small
// enough to check against the ARFF grammar by eye; edit them by hand when
// the export format is meant to change.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func checkARFFGolden(t *testing.T, name, relation string, d *Dataset) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteARFF(&buf, relation, d); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("WriteARFF output differs from testdata/%s:\ngot:\n%s\nwant:\n%s", name, buf.Bytes(), want)
	}
}

func TestWriteARFFNominalGolden(t *testing.T) {
	X := [][]float64{{1.5, -2}, {0, 3.25}, {1e-7, 12345678}}
	d, err := NewDataset([]string{"x0", "x1"}, []string{"neg", "pos"}, X, []float64{1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	checkARFFGolden(t, "nominal.golden.arff", "secmetric corpus", d)
}

func TestWriteARFFNumericGolden(t *testing.T) {
	X := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	d, err := NewDataset([]string{"a", "b"}, nil, X, []float64{0.5, -1.25, 100})
	if err != nil {
		t.Fatal(err)
	}
	checkARFFGolden(t, "numeric.golden.arff", "reg", d)
}

func TestARFFSanitization(t *testing.T) {
	X := [][]float64{{1, 2}, {3, 4}}
	d, err := NewDataset([]string{"weird name!", ""}, []string{"a b", "c,d"}, X, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	checkARFFGolden(t, "sanitize.golden.arff", "rel with spaces", d)
}
