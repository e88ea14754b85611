package secmetric

// Golden-output tests: the analyze/score/findings JSON the CLI emits for
// examples/vulnapp is pinned byte-for-byte in testdata/. The fixtures were
// captured before the zero-alloc lexer and compiled-forest rewrites, so
// these tests are the proof that the hot-path optimizations changed no
// emitted value — at any worker-pool width. Regenerate (deliberately) with
//
//	go test -run Golden -update-goldens .
//
// after a semantic change to the extractors or the report.

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGoldens = flag.Bool("update-goldens", false, "rewrite testdata golden files from current output")

const goldenDir = "examples/vulnapp"

// encodeCLI reproduces the CLI's JSON encoding (two-space indent, trailing
// newline) so the in-process bytes are comparable with captured stdout.
func encodeCLI(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGoldens {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: output differs from golden (%d vs %d bytes); run with -update-goldens if the change is intended",
			path, len(got), len(want))
	}
}

// analyzeAt extracts the example tree's features at one worker-pool width.
func analyzeAt(t *testing.T, jobs int) FeatureVector {
	t.Helper()
	fv, _, err := AnalyzeDirWithDiagnostics(context.Background(), goldenDir, AnalyzeConfig{Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	return fv
}

func TestAnalyzeGolden(t *testing.T) {
	for _, jobs := range []int{1, 8} {
		fv := analyzeAt(t, jobs)
		out := struct {
			Features FeatureVector `json:"features"`
		}{Features: fv}
		got := encodeCLI(t, out)
		if jobs != 1 && *updateGoldens {
			continue // write the golden once, from the jobs=1 run
		}
		checkGolden(t, filepath.Join("testdata", "analyze.vulnapp.golden.json"), got)
	}
}

func TestScoreGolden(t *testing.T) {
	model, err := LoadModel(filepath.Join("testdata", "model.logistic.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []int{1, 8} {
		rep := model.Score(goldenDir, analyzeAt(t, jobs))
		got := encodeCLI(t, rep)
		if jobs != 1 && *updateGoldens {
			continue
		}
		checkGolden(t, filepath.Join("testdata", "score.vulnapp.golden.json"), got)
	}
}

func TestFindingsGolden(t *testing.T) {
	rep, err := CollectFindingsDir(goldenDir)
	if err != nil {
		t.Fatal(err)
	}
	got := encodeCLI(t, rep)
	checkGolden(t, filepath.Join("testdata", "findings.vulnapp.golden.json"), got)
}
