package core

import (
	"bytes"
	"context"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/featcache"
	"repro/internal/lang"
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

// roundTripsDeepEqual encodes v and reports whether the encoding decodes
// back to a deep-equal value, with the encoding for the failure message.
func roundTripsDeepEqual[T any](v T) (bool, []byte) {
	data, err := json.Marshal(v)
	if err != nil {
		return false, nil
	}
	var back T
	if err := json.Unmarshal(data, &back); err != nil {
		return false, data
	}
	return reflect.DeepEqual(back, v), data
}

// TestStoredRecordsRoundTrip: every record a cold run stores, of both
// kinds, decodes from its own encoding to a deep-equal value, on langgen
// trees at several seeds plus files that skip parsing or leave their
// language to the path. That is what lets a memory hit serve the stored
// value where a disk hit of the same record serves its decoded bytes.
func TestStoredRecordsRoundTrip(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		spec := langgen.DefaultSpec()
		spec.Files = 4
		spec.VulnDensity = 0.5
		spec.Seed = seed
		tree := langgen.Generate(spec)
		tree.Files = append(tree.Files,
			metrics.File{Path: "legacy.c", Language: lang.C, Content: "int main( { char b[8]; gets(b); strcpy(b, argv); }\n"},
			metrics.File{Path: "inferred.mc", Content: "int f(int n) { int d = read_input(); system(d); return d / n; }\n"},
		)
		cache := featcache.NewMemory()
		if _, err := ExtractFeaturesWith(context.Background(), tree, ExtractConfig{Cache: cache}); err != nil {
			t.Fatal(err)
		}
		mustCollect(t, tree, FindingsConfig{Cache: cache})

		stored := map[string]bool{}
		for _, f := range tree.Files {
			enr, ok := featcache.Get[fileEnrichment](cache, enrichmentKey(f))
			if !ok {
				t.Fatalf("seed %d: %s: no enrichment record after a cold run", seed, f.Path)
			}
			if same, data := roundTripsDeepEqual(enr); !same {
				t.Fatalf("seed %d: %s: enrichment record %+v does not decode from its encoding %s", seed, f.Path, enr, data)
			}
			rec, ok := featcache.Get[findingsRecord](cache, findingsKey(f))
			if !ok {
				t.Fatalf("seed %d: %s: no findings record after a cold run", seed, f.Path)
			}
			if same, data := roundTripsDeepEqual(rec); !same {
				t.Fatalf("seed %d: %s: findings record %+v does not decode from its encoding %s", seed, f.Path, rec, data)
			}
			stored[enrichmentKey(f)], stored[findingsKey(f)] = true, true
		}
		if n, _ := cache.MemStats(); n != len(stored) {
			t.Fatalf("seed %d: the cold run stored %d records, the check read %d", seed, n, len(stored))
		}
	}
}

// FuzzCacheRecord plants fuzzed bytes as the entry file of an enrichment
// key and of a findings key and reads each through a fresh disk-backed
// cache. A read hits only when the bytes are exactly the encoding of the
// value they decode to, and a hit's value re-encodes to those bytes; each
// failed read of the entry counts one corrupt read; and a miss followed by
// a put reads back as a hit, from memory and from disk.
func FuzzCacheRecord(f *testing.F) {
	for _, r := range goldenCacheRecords() {
		data, err := os.ReadFile(r.golden)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(append(append([]byte(nil), data...), " \n"...))
		if i := bytes.LastIndexByte(data, ','); i > 0 && r.kind == "enrichment" {
			f.Add(append(append([]byte(nil), data[:i]...), '}'))
		}
	}
	for _, seed := range []string{
		`null`, `{}`, `[]`, `{"findings":null}`, `{"findings":[]}`,
		`{"findings":[{"Rule":"x","CWE":0,"File":"","Line":1,"Severity":"info"}]}`,
	} {
		f.Add([]byte(seed))
	}
	records := goldenCacheRecords()
	f.Fuzz(func(t *testing.T, data []byte) {
		checkPlantedRecord[fileEnrichment](t, records[0].key, data)
		checkPlantedRecord[findingsRecord](t, records[1].key, data)
	})
}

// checkPlantedRecord holds FuzzCacheRecord's properties for one record
// kind.
func checkPlantedRecord[T any](t *testing.T, key string, data []byte) {
	dir := t.TempDir()
	p := entryPath(dir, key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	cache, err := featcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var decoded T
	exact := json.Unmarshal(data, &decoded) == nil
	if exact {
		enc, err := json.Marshal(decoded)
		exact = err == nil && bytes.Equal(enc, data)
	}

	got, hit := featcache.Get[T](cache, key)
	if hit != exact {
		t.Fatalf("%T entry %q: hit = %v, but the bytes are the exact encoding of their value: %v", got, data, hit, exact)
	}
	if hit {
		if enc, err := json.Marshal(got); err != nil || !bytes.Equal(enc, data) {
			t.Fatalf("%T entry %q: the hit re-encodes to %q (%v)", got, data, enc, err)
		}
		if c := cache.CorruptReads(); c != 0 {
			t.Fatalf("%T entry %q: a hit counted %d corrupt reads", got, data, c)
		}
		again, ok := featcache.Get[T](cache, key)
		if !ok || !reflect.DeepEqual(again, got) {
			t.Fatalf("%T entry %q: the memory hit serves %+v, %v; the disk hit served %+v", got, data, again, ok, got)
		}
		return
	}
	if c := cache.CorruptReads(); c != 1 {
		t.Fatalf("%T entry %q: a failed read counted %d corrupt reads, want 1", got, data, c)
	}
	var fresh T
	if err := featcache.Put(cache, key, fresh); err != nil {
		t.Fatal(err)
	}
	if _, ok := featcache.Get[T](cache, key); !ok {
		t.Fatalf("%T entry %q: a put after the miss does not read back from memory", got, data)
	}
	reopened, err := featcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := featcache.Get[T](reopened, key); !ok || reopened.CorruptReads() != 0 {
		t.Fatalf("%T entry %q: a put after the miss does not read back from disk (%d corrupt reads)", got, data, reopened.CorruptReads())
	}
}
