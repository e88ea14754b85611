package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/featcache"
	"repro/internal/lang"
	"repro/internal/langgen"
	"repro/internal/metrics"
)

// keySource parses as MiniC: taint flows into two sinks, a dead store, a
// division by a parameter and a function that can end without a return.
const keySource = `int relay(int dst, int n) {
  int d = read_input();
  int unused = 3;
  strcpy(dst, d);
  system(d);
  return 10 / n;
}

int maybe(int a) {
  if (a > 0) {
    return relay(0, a);
  }
}
`

// TestCacheHitEqualsFreshAnalysis: a record's key (version, kind,
// language, bytes) is the whole input of the analysis that made it, so a
// record read through a cache shared by every file equals a fresh analysis
// of the file at hand, whatever its path. The files hold the same bytes in
// every language and in Unknown, each at a .c path, a .py path and a path
// with no extension; the bytes are keySource and one small loop-free
// langgen file per language. A tree holding one file's bytes at all three paths extracts the
// same vector with and without a cache, at Jobs 1 and 8.
func TestCacheHitEqualsFreshAnalysis(t *testing.T) {
	ctx := context.Background()
	langs := append([]lang.Language{lang.Unknown}, lang.All()...)
	paths := []string{"x.c", "x.py", "x"}
	contents := []string{keySource}
	for _, l := range lang.All() {
		spec := langgen.DefaultSpec()
		spec.Language = l
		spec.Files, spec.FuncsPerFile, spec.StmtsPerFunc = 1, 3, 6
		spec.VulnDensity = 0.6
		spec.LoopProb = 0 // keeps the interpreter's 24 runs short
		contents = append(contents, langgen.Generate(spec).Files[0].Content)
	}

	shared := featcache.NewMemory()
	for ci, src := range contents {
		for _, l := range langs {
			for _, p := range paths {
				f := metrics.File{Path: fmt.Sprintf("src%d/%s", ci, p), Language: l, Content: src}
				name := fmt.Sprintf("%s at %s", l, f.Path)
				// Built by hand, so an Unknown language stays unknown.
				one := &metrics.Tree{Name: "one", Files: []metrics.File{f}}

				wantFV := ExtractFeatures(one)
				gotFV, err := ExtractFeaturesWith(ctx, one, ExtractConfig{Jobs: 1, Cache: shared})
				if err != nil {
					t.Fatal(err)
				}
				if d := vectorDiff(gotFV, wantFV); d != "" {
					t.Errorf("%s: shared-cache vector differs from the uncached one: %s", name, d)
				}
				wantRep := marshalReport(t, mustCollect(t, one, FindingsConfig{Jobs: 1}))
				if got := marshalReport(t, mustCollect(t, one, FindingsConfig{Jobs: 1, Cache: shared})); got != wantRep {
					t.Errorf("%s: shared-cache findings differ from the uncached ones:\n%s\nwant\n%s", name, got, wantRep)
				}

				// The records the shared cache serves equal those a cache of
				// this file alone stores.
				fresh := featcache.NewMemory()
				if _, err := ExtractFeaturesWith(ctx, one, ExtractConfig{Jobs: 1, Cache: fresh}); err != nil {
					t.Fatal(err)
				}
				mustCollect(t, one, FindingsConfig{Jobs: 1, Cache: fresh})
				gotEnr, ok1 := featcache.Get[fileEnrichment](shared, enrichmentKey(f))
				wantEnr, ok2 := featcache.Get[fileEnrichment](fresh, enrichmentKey(f))
				if !ok1 || !ok2 || gotEnr != wantEnr {
					t.Errorf("%s: shared enrichment record %+v (%v), fresh %+v (%v)", name, gotEnr, ok1, wantEnr, ok2)
				}
				gotFd, ok1 := featcache.Get[findingsRecord](shared, findingsKey(f))
				wantFd, ok2 := featcache.Get[findingsRecord](fresh, findingsKey(f))
				if !ok1 || !ok2 || !reflect.DeepEqual(gotFd, wantFd) {
					t.Errorf("%s: shared findings record %+v (%v), fresh %+v (%v)", name, gotFd, ok1, wantFd, ok2)
				}
			}
		}
	}

	for _, l := range langs {
		tree := &metrics.Tree{Name: "same-bytes"}
		for _, p := range paths {
			tree.Files = append(tree.Files, metrics.File{Path: p, Language: l, Content: keySource})
		}
		for _, jobs := range []int{1, 8} {
			want, err := ExtractFeaturesWith(ctx, tree, ExtractConfig{Jobs: jobs})
			if err != nil {
				t.Fatal(err)
			}
			got, err := ExtractFeaturesWith(ctx, tree, ExtractConfig{Jobs: jobs, Cache: featcache.NewMemory()})
			if err != nil {
				t.Fatal(err)
			}
			if d := vectorDiff(got, want); d != "" {
				t.Errorf("%s at %v, jobs=%d: cached vector differs from the uncached one: %s", l, paths, jobs, d)
			}
		}
	}
}

// vectorDiff names the features on which got and want differ, or returns
// "" when they are equal.
func vectorDiff(got, want metrics.FeatureVector) string {
	var d string
	for _, n := range metrics.FeatureNames {
		if got[n] != want[n] {
			d += fmt.Sprintf(" %s=%v (want %v)", n, got[n], want[n])
		}
	}
	return d
}
