package core

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/featcache"
	"repro/internal/lang"
	"repro/internal/langgen"
	"repro/internal/lint"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// TestTrainParallelByteIdenticalModel is the acceptance gate of the
// parallel training engine: a fully parallel train must persist to the
// exact same JSON as a sequential (Jobs = 1) train with the same seed.
func TestTrainParallelByteIdenticalModel(t *testing.T) {
	c := getCorpus(t)
	train := func(jobs int) []byte {
		cfg := TrainConfig{Kind: KindForest, Folds: 3, Seed: 99, Jobs: jobs}
		m, err := Train(context.Background(), NewTestbed(c), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	seq := train(1)
	par := train(8)
	if !bytes.Equal(seq, par) {
		t.Fatal("parallel training produced a different persisted model than sequential")
	}
}

func TestTrainRejectsInvalidKindWithoutPanic(t *testing.T) {
	c := getCorpus(t)
	_, err := Train(context.Background(), NewTestbed(c), TrainConfig{Kind: ModelKind("bogus"), Folds: 2, Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "unknown model kind") {
		t.Fatalf("err = %v, want unknown-kind error", err)
	}
}

func TestTrainHypothesisRejectsInvalidKind(t *testing.T) {
	tb := NewTestbed(getCorpus(t))
	_, err := TrainHypothesis(tb, HypManyVulns,
		TrainConfig{Kind: ModelKind("nope"), Folds: 2}, stats.NewRNG(1))
	if err == nil || !strings.Contains(err.Error(), "unknown model kind") {
		t.Fatalf("err = %v, want unknown-kind error", err)
	}
}

func TestExtractFeaturesWithMatchesDefault(t *testing.T) {
	spec := langgen.DefaultSpec()
	spec.Files = 3
	tree := langgen.Generate(spec)
	base := ExtractFeatures(tree)
	for _, jobs := range []int{1, 4} {
		got, err := ExtractFeaturesWith(context.Background(), tree, ExtractConfig{Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range metrics.FeatureNames {
			if got[n] != base[n] {
				t.Fatalf("jobs=%d: feature %s = %v, want %v", jobs, n, got[n], base[n])
			}
		}
	}
}

func TestExtractFeaturesCacheHitMissAndInvalidation(t *testing.T) {
	spec := langgen.DefaultSpec()
	spec.Files = 3
	tree := langgen.Generate(spec)
	// The lint count rides in the cached record, so every way of obtaining
	// the record must add up to a tree-wide lint pass: a parse-skip file
	// counts its token rules, and a file with no language set lints as
	// given (C syntax), not at the language its path suggests — notes.py
	// holds a comment in C and a gets() call in Python.
	tree.Files = append(tree.Files,
		metrics.File{Path: "src/legacy.c", Content: "int legacy(void) { char b[4]; gets(b); return 0; }\n"},
		metrics.File{Path: "src/notes.py", Content: "/* gets(buf); */\n"},
		metrics.File{Path: "src/skip.c", Language: lang.C, Content: "int main( { strcpy(a, b); this does not parse\n"},
	)
	wantLint := float64(lint.Check(tree).Total())
	for _, jobs := range []int{1, 8} {
		check := func(label string, cache *featcache.Cache, wantHits int) {
			t.Helper()
			fv, diag, err := ExtractFeaturesDiagnostics(context.Background(), tree, ExtractConfig{Jobs: jobs, Cache: cache})
			if err != nil {
				t.Fatal(err)
			}
			if got := fv[metrics.FeatLintWarnings]; got != wantLint {
				t.Fatalf("jobs=%d %s: lint_warnings = %v, want %v (lint.Check over the tree)", jobs, label, got, wantLint)
			}
			if diag.CacheHits != uint64(wantHits) {
				t.Fatalf("jobs=%d %s: %d cache hits, want %d", jobs, label, diag.CacheHits, wantHits)
			}
		}
		dir := t.TempDir()
		disk, err := featcache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		check("uncached", nil, 0)
		check("cold cache", disk, 0)
		check("warm cache", disk, len(tree.Files))
		reopened, err := featcache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		check("reopened disk cache", reopened, len(tree.Files))
	}

	cache, err := featcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := ExtractConfig{Cache: cache}

	cold, err := ExtractFeaturesWith(context.Background(), tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, coldMisses := cache.Stats()
	if coldMisses == 0 {
		t.Fatal("cold run recorded no misses")
	}

	warm, err := ExtractFeaturesWith(context.Background(), tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := cache.Stats()
	if misses != coldMisses {
		t.Fatalf("warm run re-analyzed: misses %d -> %d", coldMisses, misses)
	}
	if hits == 0 {
		t.Fatal("warm run recorded no hits")
	}
	for _, n := range metrics.FeatureNames {
		if warm[n] != cold[n] {
			t.Fatalf("cached feature %s = %v, want %v", n, warm[n], cold[n])
		}
	}

	// Changing one file's bytes must re-analyze exactly that file.
	changed := &metrics.Tree{Name: tree.Name, Files: append([]metrics.File(nil), tree.Files...)}
	changed.Files[0].Content += "\nint added(void) { return 1; }\n"
	if _, err := ExtractFeaturesWith(context.Background(), changed, cfg); err != nil {
		t.Fatal(err)
	}
	_, afterChange := cache.Stats()
	if afterChange != coldMisses+1 {
		t.Fatalf("content change caused %d new misses, want 1", afterChange-coldMisses)
	}

	// A version bump invalidates every entry: fresh keys all miss.
	for _, f := range tree.Files {
		if _, ok := featcache.Get[fileEnrichment](cache, featcache.Key(AnalysisVersion+"-next", f.Language.String(), f.Content)); ok {
			t.Fatal("version-bumped key unexpectedly hit")
		}
	}
}

func TestExtractFeaturesCachePersistsAcrossCaches(t *testing.T) {
	spec := langgen.DefaultSpec()
	spec.Files = 2
	tree := langgen.Generate(spec)
	dir := t.TempDir()

	c1, err := featcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	first, err := ExtractFeaturesWith(context.Background(), tree, ExtractConfig{Cache: c1})
	if err != nil {
		t.Fatal(err)
	}

	// A second process over the same directory starts warm.
	c2, err := featcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	second, err := ExtractFeaturesWith(context.Background(), tree, ExtractConfig{Cache: c2})
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := c2.Stats()
	if misses != 0 || hits == 0 {
		t.Fatalf("second cache: %d hits, %d misses; want all hits", hits, misses)
	}
	for _, n := range metrics.FeatureNames {
		if second[n] != first[n] {
			t.Fatalf("persisted feature %s = %v, want %v", n, second[n], first[n])
		}
	}
}
