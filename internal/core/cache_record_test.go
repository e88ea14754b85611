package core

import (
	"context"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/featcache"
	"repro/internal/langgen"
	"repro/internal/metrics"
)

// TestCorruptCacheRecordIsRecomputed: a disk record that json.Unmarshal
// accepts but that is not the encoding of a fileEnrichment is a corrupt
// read. The file is analyzed again (status ok, not cache-hit), the vector
// equals the uncached one, and the recomputed record replaces the bad one.
func TestCorruptCacheRecordIsRecomputed(t *testing.T) {
	spec := langgen.DefaultSpec()
	spec.Files = 3
	tree := langgen.Generate(spec)
	want := ExtractFeatures(tree)
	ctx := context.Background()
	for _, record := range []string{`null`, `{}`, `{"tainted_sinks":0}`, `{"tainted_sinks":-7}   `} {
		for _, jobs := range []int{1, 8} {
			dir := t.TempDir()
			warm, err := featcache.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ExtractFeaturesWith(ctx, tree, ExtractConfig{Jobs: jobs, Cache: warm}); err != nil {
				t.Fatal(err)
			}
			overwritten := 0
			err = filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
				if err != nil || d.IsDir() || !strings.HasSuffix(p, ".json") {
					return err
				}
				overwritten++
				return os.WriteFile(p, []byte(record), 0o644)
			})
			if err != nil {
				t.Fatal(err)
			}
			if overwritten != len(tree.Files) {
				t.Fatalf("%d cache records for %d files", overwritten, len(tree.Files))
			}

			// Each check reads through a fresh Cache over the directory, so
			// the memory tier cannot mask the disk records.
			check := func(label string, wantStatus FileStatus) *featcache.Cache {
				t.Helper()
				cache, err := featcache.Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				fv, diag, err := ExtractFeaturesDiagnostics(ctx, tree, ExtractConfig{Jobs: jobs, Cache: cache})
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range diag.Files {
					if f.Status != wantStatus {
						t.Fatalf("record %q jobs=%d %s: %s is %s, want %s", record, jobs, label, f.Path, f.Status, wantStatus)
					}
				}
				for _, n := range metrics.FeatureNames {
					if fv[n] != want[n] {
						t.Fatalf("record %q jobs=%d %s: feature %s = %v, want %v (uncached)", record, jobs, label, n, fv[n], want[n])
					}
				}
				return cache
			}
			if got := check("corrupt", StatusOK).CorruptReads(); got != uint64(len(tree.Files)) {
				t.Fatalf("record %q jobs=%d: CorruptReads = %d, want %d", record, jobs, got, len(tree.Files))
			}
			if got := check("rewritten", StatusCacheHit).CorruptReads(); got != 0 {
				t.Fatalf("record %q jobs=%d: %d rewritten records read as corrupt", record, jobs, got)
			}
		}
	}
}
