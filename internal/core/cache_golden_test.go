package core

// Feature-cache golden tests: the on-disk form of both record kinds is
// pinned byte-for-byte in testdata — featcache.Key's hex for both key
// shapes of one fixed MiniC file, and the entry files a disk-backed cache
// writes for it. A cache directory a daemon wrote must keep reading as hits
// after the cache's internals change, so these files only change with
// AnalysisVersion. Regenerate deliberately with
//
//	go test ./internal/core -run CacheRecordGolden -update-cache-golden

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/featcache"
	"repro/internal/findings"
	"repro/internal/lang"
	"repro/internal/metrics"
)

var updateCacheGolden = flag.Bool("update-cache-golden", false, "rewrite the feature-cache record goldens from current output")

// goldenCacheSource is the fixed MiniC file behind the cache goldens: it
// has taint flows into three sink kinds, a division and a dead store, so
// both records carry nonzero fields.
const goldenCacheSource = `int relay(int dst, int n) {
  int d = read_input();
  int unused = 3;
  strcpy(dst, d);
  system(d);
  printf(d);
  return 10 / n;
}

int main(void) {
  int n = read_input();
  if (n > 0) {
    return relay(0, n);
  }
  return 0;
}
`

func goldenCacheTree() *metrics.Tree {
	return metrics.NewTree("golden", metrics.File{Path: "golden.mc", Language: lang.MiniC, Content: goldenCacheSource})
}

// goldenCacheRecord is one record kind of the golden file: its key and the
// testdata file pinning its entry's bytes.
type goldenCacheRecord struct {
	kind, key, golden string
}

func goldenCacheRecords() []goldenCacheRecord {
	minic := lang.MiniC.String()
	return []goldenCacheRecord{
		{"enrichment", featcache.Key(AnalysisVersion, minic, goldenCacheSource), filepath.Join("testdata", "featcache.enrichment.golden.json")},
		{"findings", featcache.Key(AnalysisVersion, "findings", minic, goldenCacheSource), filepath.Join("testdata", "featcache.findings.golden.json")},
	}
}

// entryPath is where a disk-backed cache under dir keeps key's entry.
func entryPath(dir, key string) string {
	return filepath.Join(dir, key[:2], key[2:]+".json")
}

func checkCacheGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateCacheGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("%s differs from the golden; run with -update-cache-golden only if AnalysisVersion changed:\n%s\nwant\n%s", path, got, want)
	}
}

// coldCacheDir runs extraction and the findings collector over tree through
// a fresh disk-backed cache and returns its directory.
func coldCacheDir(t *testing.T, tree *metrics.Tree) string {
	t.Helper()
	dir := t.TempDir()
	cache, err := featcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExtractFeaturesWith(context.Background(), tree, ExtractConfig{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	mustCollect(t, tree, FindingsConfig{Cache: cache})
	return dir
}

// TestCacheRecordGolden pins both key shapes and the bytes of both entry
// files a cold run writes for the golden file, and that the run writes
// nothing else.
func TestCacheRecordGolden(t *testing.T) {
	records := goldenCacheRecords()
	keys := ""
	for _, r := range records {
		keys += fmt.Sprintf("%s %s\n", r.kind, r.key)
	}
	checkCacheGolden(t, filepath.Join("testdata", "featcache.keys.golden.txt"), []byte(keys))

	dir := coldCacheDir(t, goldenCacheTree())
	entries, err := filepath.Glob(filepath.Join(dir, "*", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(records) {
		t.Fatalf("a cold run wrote %d entries, want one per record kind: %v", len(entries), entries)
	}
	for _, r := range records {
		got, err := os.ReadFile(entryPath(dir, r.key))
		if err != nil {
			t.Fatalf("%s entry: %v", r.kind, err)
		}
		checkCacheGolden(t, r.golden, got)
	}
}

// TestGoldenCacheDirReadsAsHits: a cache directory holding exactly the
// golden entries, as an earlier build wrote them, serves both records as
// hits with no corrupt read, and what it serves equals an uncached run.
func TestGoldenCacheDirReadsAsHits(t *testing.T) {
	if *updateCacheGolden {
		t.Skip("goldens are being rewritten")
	}
	dir := t.TempDir()
	for _, r := range goldenCacheRecords() {
		data, err := os.ReadFile(r.golden)
		if err != nil {
			t.Fatal(err)
		}
		p := entryPath(dir, r.key)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cache, err := featcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tree := goldenCacheTree()
	ctx := context.Background()

	fv, diag, err := ExtractFeaturesDiagnostics(ctx, tree, ExtractConfig{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if diag.Files[0].Status != StatusCacheHit {
		t.Fatalf("enrichment record read as %s, want %s", diag.Files[0].Status, StatusCacheHit)
	}
	want := ExtractFeatures(tree)
	for _, n := range metrics.FeatureNames {
		if fv[n] != want[n] {
			t.Fatalf("feature %s = %v from the golden record, want %v (uncached)", n, fv[n], want[n])
		}
	}

	rep, statuses := collectStatuses(t, tree, FindingsConfig{Cache: cache})
	if statuses[0] != StatusCacheHit {
		t.Fatalf("findings record read as %s, want %s", statuses[0], StatusCacheHit)
	}
	wantRep := referenceFindings(tree, findings.SevInfo)
	if len(wantRep.Findings) == 0 {
		t.Fatal("the golden file has no findings; the findings golden is weak")
	}
	if got, w := marshalReport(t, rep), marshalReport(t, wantRep); got != w {
		t.Fatalf("findings from the golden record:\n%s\nwant\n%s", got, w)
	}

	if hits, misses := cache.Stats(); hits != 2 || misses != 0 {
		t.Fatalf("%d hits, %d misses; want 2 hits and no miss", hits, misses)
	}
	if c := cache.CorruptReads(); c != 0 {
		t.Fatalf("%d corrupt reads of the golden entries", c)
	}
}
