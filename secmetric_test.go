package secmetric

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/langgen"
	"repro/internal/metrics"
)

var (
	once       sync.Once
	facadeCorp *Corpus
	facadeMdl  *Model
	setupErr   error
)

func setup(t *testing.T) (*Corpus, *Model) {
	t.Helper()
	once.Do(func() {
		facadeCorp, setupErr = DefaultCorpus()
		if setupErr != nil {
			return
		}
		facadeMdl, setupErr = Train(facadeCorp, TrainConfig{Kind: KindLogistic, Folds: 5, Seed: 12})
	})
	if setupErr != nil {
		t.Fatal(setupErr)
	}
	return facadeCorp, facadeMdl
}

func TestFacadeEndToEnd(t *testing.T) {
	_, model := setup(t)
	spec := langgen.DefaultSpec()
	spec.Seed = 404
	tree := langgen.Generate(spec)
	fv := AnalyzeTree(tree)
	rep := model.Score(tree.Name, fv)
	if rep.RiskScore < 0 || rep.RiskScore > 100 {
		t.Fatalf("risk score = %v", rep.RiskScore)
	}
	if len(rep.Risks) != 5 {
		t.Fatalf("risks = %d", len(rep.Risks))
	}
}

func TestFacadeAnalyzeDir(t *testing.T) {
	dir := t.TempDir()
	src := `
int main(void) {
	char buf[8];
	gets(buf);
	return 0;
}`
	if err := os.WriteFile(filepath.Join(dir, "main.c"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	fv, err := AnalyzeDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if fv["kloc"] <= 0 {
		t.Fatal("kloc missing")
	}
	if fv["lint_warnings"] == 0 {
		t.Fatal("gets() not flagged")
	}
}

func TestFacadeAnalyzeDirWithCache(t *testing.T) {
	dir := t.TempDir()
	src := `
int copy(int dst, int n) {
	int data = read_input();
	memmove(dst, data, n);
	return n;
}`
	if err := os.WriteFile(filepath.Join(dir, "io.mc"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := AnalyzeConfig{Jobs: 2, CacheDir: filepath.Join(t.TempDir(), "cache")}
	cold, _, err := AnalyzeDirWithDiagnostics(context.Background(), dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm, _, err := AnalyzeDirWithDiagnostics(context.Background(), dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range cold {
		if warm[k] != v {
			t.Fatalf("cached analysis drifted: %s = %v, want %v", k, warm[k], v)
		}
	}
	// The cache directory holds at least one persisted entry.
	entries, err := os.ReadDir(cfg.CacheDir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("cache dir empty (err=%v)", err)
	}
}

func TestFacadeAnalyzeTreeWithMatchesAnalyzeTree(t *testing.T) {
	spec := langgen.DefaultSpec()
	spec.Seed = 99
	tree := langgen.Generate(spec)
	plain := AnalyzeTree(tree)
	cfgd, _, err := AnalyzeTreeWithDiagnostics(context.Background(), tree, AnalyzeConfig{Jobs: 3})
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range plain {
		if cfgd[k] != v {
			t.Fatalf("AnalyzeTreeWithDiagnostics drifted on %s: %v vs %v", k, cfgd[k], v)
		}
	}
}

func TestFacadeAnalyzeTreeWithRejectsEmptyTree(t *testing.T) {
	// Mirrors AnalyzeDirWithDiagnostics' empty-directory rejection: the two
	// entry points must agree instead of one silently producing a hollow
	// vector.
	empty := &Tree{Name: "empty"}
	if _, _, err := AnalyzeTreeWithDiagnostics(context.Background(), empty, AnalyzeConfig{}); err == nil {
		t.Fatal("AnalyzeTreeWithDiagnostics accepted an empty tree")
	}
}

func TestFacadeAnalyzeDirWithDiagnostics(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"good.mc": "int main(void) { return 0; }\n",
		"bad.c":   "int main( { this does not parse\n",
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cfg := AnalyzeConfig{
		CacheDir:    filepath.Join(t.TempDir(), "cache"),
		FileTimeout: time.Minute,
	}
	_, cold, err := AnalyzeDirWithDiagnostics(context.Background(), dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Files) != 2 {
		t.Fatalf("diagnostics cover %d files, want 2", len(cold.Files))
	}
	if got := cold.Counts()[StatusParseSkip]; got != 1 {
		t.Fatalf("parse-skip count = %d, want 1 (bad.c)", got)
	}
	if cold.CacheMisses != 2 || cold.CacheHits != 0 {
		t.Fatalf("cold cache traffic = %d hits / %d misses, want 0 / 2", cold.CacheHits, cold.CacheMisses)
	}
	_, warm, err := AnalyzeDirWithDiagnostics(context.Background(), dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheHits != 2 || warm.Counts()[StatusCacheHit] != 2 {
		t.Fatalf("warm run = %v with %d hit(s), want all cache hits", warm.Counts(), warm.CacheHits)
	}
}

func TestFacadeAnalyzeDirEmpty(t *testing.T) {
	if _, err := AnalyzeDir(t.TempDir()); err == nil {
		t.Fatal("empty dir analyzed")
	}
	if _, err := AnalyzeDir("/no/such/dir"); err == nil {
		t.Fatal("missing dir analyzed")
	}
}

func TestFacadeModelFileRoundTrip(t *testing.T) {
	corp, model := setup(t)
	path := filepath.Join(t.TempDir(), "model.json")
	if err := SaveModel(model, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	a := corp.Apps[0]
	orig := model.Score(a.App.Name, a.Features)
	rest := loaded.Score(a.App.Name, a.Features)
	if orig.RiskScore != rest.RiskScore {
		t.Fatalf("scores differ after file round trip: %v vs %v",
			orig.RiskScore, rest.RiskScore)
	}
}

func TestFacadeSaveModelAtomic(t *testing.T) {
	_, model := setup(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "model.json")

	// A save into a missing directory fails and leaves nothing behind at
	// the target path.
	if err := SaveModel(model, filepath.Join(dir, "nope", "model.json")); err == nil {
		t.Fatal("save into a missing directory succeeded")
	}

	// A successful save leaves exactly the target file — no .model-* temp
	// residue from the write-then-rename.
	if err := SaveModel(model, path); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "model.json" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("dir holds %v, want exactly model.json", names)
	}

	// Overwriting an existing model works and the result loads.
	if err := SaveModel(model, path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(path); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeLoadModelRefusesSchemaMismatch(t *testing.T) {
	_, model := setup(t)
	path := filepath.Join(t.TempDir(), "model.json")
	if err := SaveModel(model, path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var dto map[string]json.RawMessage
	if err := json.Unmarshal(raw, &dto); err != nil {
		t.Fatal(err)
	}
	delete(dto, "schema")
	stale, err := json.Marshal(dto)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = LoadModel(path)
	if !errors.Is(err, ErrFeatureSchema) {
		t.Fatalf("err = %v, want ErrFeatureSchema", err)
	}
}

func TestFacadeCompare(t *testing.T) {
	_, model := setup(t)
	clean := langgen.DefaultSpec()
	clean.Seed = 777
	clean.VulnDensity = 0
	dirty := clean
	dirty.VulnDensity = 1
	cleanFV := AnalyzeTree(langgen.Generate(clean))
	dirtyFV := AnalyzeTree(langgen.Generate(dirty))
	cmp := model.Compare("clean", cleanFV, "dirty", dirtyFV)
	if cmp.DeltaRisk <= 0 {
		t.Fatalf("injected vulnerabilities lowered risk: %s", cmp.Verdict())
	}
}

// TestFacadeCollectFindingsDegraded: a file whose findings analysis panics
// fails the facade's collection with ErrFindingsDegraded; without the
// fault the same tree collects its findings.
func TestFacadeCollectFindingsDegraded(t *testing.T) {
	tree := langgen.Generate(langgen.DefaultSpec())
	victim := tree.Files[0].Path
	restore := core.SetFindingsTestHook(func(f metrics.File) {
		if f.Path == victim {
			panic("injected findings bug")
		}
	})
	rep, err := CollectFindings(tree)
	restore()
	if !errors.Is(err, ErrFindingsDegraded) || rep != nil {
		t.Fatalf("report %v, err %v; want no report and ErrFindingsDegraded", rep, err)
	}
	if rep, err := CollectFindings(tree); err != nil || rep.Total() == 0 {
		t.Fatalf("healed collection: %v findings, err %v", rep, err)
	}
}
