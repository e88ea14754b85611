package featcache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestKeyDistinguishesVersionAndParts(t *testing.T) {
	base := Key("v1", "minic", "int main(void) {}")
	if base != Key("v1", "minic", "int main(void) {}") {
		t.Fatal("identical inputs must hash identically")
	}
	if base == Key("v2", "minic", "int main(void) {}") {
		t.Fatal("analysis-version bump must change the key")
	}
	if base == Key("v1", "minic", "int main(void) { return 1; }") {
		t.Fatal("content change must change the key")
	}
	if base == Key("v1", "c", "int main(void) {}") {
		t.Fatal("language change must change the key")
	}
	// Length prefixes keep part boundaries unambiguous.
	if Key("v", "ab", "c") == Key("v", "a", "bc") {
		t.Fatal("part boundaries must not collide")
	}
}

// referenceKey is Key as it was first written, one fmt.Fprintf per part
// into a streaming hash. Every cache directory on disk is addressed by it.
func referenceKey(version string, parts ...string) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d:%s", len(version), version)
	for _, p := range parts {
		fmt.Fprintf(h, "%d:%s", len(p), p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestKeyMatchesReference: Key addresses every entry where the reference
// does, for empty, short and multi-kilobyte parts and any part count.
func TestKeyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	part := func() string {
		b := make([]byte, []int{0, 1, 9, 10, 99, 100, 4096}[rng.Intn(7)]+rng.Intn(3))
		rng.Read(b)
		return string(b)
	}
	for i := 0; i < 300; i++ {
		version := part()
		parts := make([]string, rng.Intn(5))
		for j := range parts {
			parts[j] = part()
		}
		if got, want := Key(version, parts...), referenceKey(version, parts...); got != want {
			t.Fatalf("Key(%q, %q) = %s, want %s", version, parts, got, want)
		}
	}
}

func TestMemoryHitAndMiss(t *testing.T) {
	c := NewMemory()
	if _, ok := Get[string](c, "k"); ok {
		t.Fatal("empty cache reported a hit")
	}
	if err := Put(c, "k", "v"); err != nil {
		t.Fatal(err)
	}
	v, ok := Get[string](c, "k")
	if !ok || v != "v" {
		t.Fatalf("get = %q, %v", v, ok)
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = %d hits, %d misses", hits, misses)
	}
}

func TestDiskPersistsAcrossOpens(t *testing.T) {
	dir := t.TempDir()
	key := Key("v1", "content")
	c1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := Put(c1, key, map[string]int{"paths": 7}); err != nil {
		t.Fatal(err)
	}
	// A fresh Cache over the same directory — a later process — hits.
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := Get[map[string]int](c2, key)
	if !ok || got["paths"] != 7 {
		t.Fatalf("disk entry not recovered: %v", got)
	}
}

func TestVersionBumpInvalidates(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	content := "int f(void) { return 0; }"
	if err := Put(c, Key("v1", content), "old"); err != nil {
		t.Fatal(err)
	}
	if _, ok := Get[string](c, Key("v2", content)); ok {
		t.Fatal("version-bumped key must miss")
	}
}

// TestCorruptEntryReadsAsMiss: a disk entry that does not decode, or
// decodes to a value that re-encodes differently, is a counted miss and
// never enters the memory tier, so the next read checks the disk again.
func TestCorruptEntryReadsAsMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key("v1", "x")
	if err := Put(c, key, 42); err != nil {
		t.Fatal(err)
	}
	// Corrupt the on-disk entry, then read through a fresh cache so the
	// memory layer cannot mask it.
	p := filepath.Join(dir, key[:2], key[2:]+".json")
	for i, bad := range []string{"{truncated", "42 ", "042"} {
		if err := os.WriteFile(p, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		c2, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		for read := 1; read <= 2; read++ {
			if _, ok := Get[int](c2, key); ok {
				t.Fatalf("entry %q read %d: decoded as a hit", bad, read)
			}
			if got := c2.CorruptReads(); got != uint64(read) {
				t.Fatalf("entry %q read %d: CorruptReads = %d, want %d: corruption must be counted, not folded into misses", bad, read, got, read)
			}
			if hits, misses := c2.Stats(); hits != 0 || misses != uint64(read) {
				t.Fatalf("entry %q read %d: %d hits, %d misses; a corrupt read is a miss", bad, read, hits, misses)
			}
			if n, _ := c2.MemStats(); n != 0 {
				t.Fatalf("entry %q (case %d) was promoted into memory", bad, i)
			}
		}
		// The recomputed value's Put overwrites the bad record.
		if err := Put(c2, key, 42); err != nil {
			t.Fatal(err)
		}
		c3, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if v, ok := Get[int](c3, key); !ok || v != 42 || c3.CorruptReads() != 0 {
			t.Fatalf("entry %q after a fresh put: %v, %v, %d corrupt reads", bad, v, ok, c3.CorruptReads())
		}
	}
}

func TestConcurrentPutGet(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c.SetMemLimit(2) // two of the four one-byte records, so evictions race the reads
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := Key("v1", string(rune('a'+i%4)))
			for j := 0; j < 20; j++ {
				_ = Put(c, key, i%4)
				if v, ok := Get[int](c, key); ok && v != i%4 {
					t.Errorf("key %d read %d", i%4, v)
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestOpenEmptyDirIsMemoryOnly(t *testing.T) {
	c, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	if err := Put(c, "k", "v"); err != nil {
		t.Fatal(err)
	}
	if _, ok := Get[string](c, "k"); !ok {
		t.Fatal("memory-only cache lost its entry")
	}
}

// record is a string whose JSON encoding is n bytes: the tier's budget is
// charged encoded bytes.
func record(n int) string {
	return strings.Repeat("x", n-2)
}

// TestMemTierBounded asserts the in-memory tier never exceeds its byte
// cap: older entries are evicted as new ones arrive, and for a disk-backed
// cache an evicted entry is still served (from disk, re-promoted within
// the bound) rather than lost.
func TestMemTierBounded(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	payload := record(100)
	c.SetMemLimit(350) // fits three 100-byte entries
	var keys []string
	for i := 0; i < 50; i++ {
		k := Key("v", fmt.Sprintf("file-%d", i))
		keys = append(keys, k)
		if err := Put(c, k, payload); err != nil {
			t.Fatal(err)
		}
		if entries, bytes := c.MemStats(); bytes > 350 || entries > 3 {
			t.Fatalf("after put %d: mem tier over bound: %d entries, %d bytes", i, entries, bytes)
		}
	}
	// The earliest key was evicted from memory but survives on disk.
	if entries, bytes := c.MemStats(); entries != 3 || bytes != 300 {
		t.Fatalf("expected 3 resident entries of 300 encoded bytes, got %d of %d", entries, bytes)
	}
	got, ok := Get[string](c, keys[0])
	if !ok {
		t.Fatal("evicted entry lost: disk tier should have served it")
	}
	if got != payload {
		t.Fatal("disk tier returned the wrong record")
	}
	// The promotion itself must respect the bound too, charged the
	// entry's length on disk.
	if entries, bytes := c.MemStats(); bytes != 300 || entries != 3 {
		t.Fatalf("disk promotion: %d entries, %d bytes; want 3 and 300", entries, bytes)
	}
}

// TestMemTierBoundMemoryOnly asserts a memory-only cache stays bounded:
// overflow entries are dropped (future misses), not retained.
func TestMemTierBoundMemoryOnly(t *testing.T) {
	c := NewMemory()
	c.SetMemLimit(64)
	for i := 0; i < 20; i++ {
		if err := Put(c, Key("v", fmt.Sprintf("k%d", i)), record(30)); err != nil {
			t.Fatal(err)
		}
		if _, bytes := c.MemStats(); bytes > 64 {
			t.Fatalf("bound exceeded: %d bytes", bytes)
		}
	}
	if _, ok := Get[string](c, Key("v", "k0")); ok {
		t.Fatal("expected earliest entry to be evicted in a memory-only cache")
	}
}

// TestShrinkMemLimitEvictsImmediately covers SetMemLimit below the current
// footprint.
func TestShrinkMemLimitEvictsImmediately(t *testing.T) {
	c := NewMemory()
	for i := 0; i < 10; i++ {
		if err := Put(c, Key("v", fmt.Sprintf("k%d", i)), record(10)); err != nil {
			t.Fatal(err)
		}
	}
	if entries, bytes := c.MemStats(); entries != 10 || bytes != 100 {
		t.Fatalf("before the shrink: %d entries, %d bytes; want 10 and 100", entries, bytes)
	}
	c.SetMemLimit(25)
	if entries, bytes := c.MemStats(); bytes > 25 || entries > 2 {
		t.Fatalf("shrink did not evict: %d entries, %d bytes", entries, bytes)
	}
}

// TestPutCopiesBeforeDiskWrite: both tiers take the value as Put received
// it, so a caller changing its variable after Put can never make the
// durable bytes diverge from the in-memory record, and the tier is charged
// exactly the length of what went to disk.
func TestPutCopiesBeforeDiskWrite(t *testing.T) {
	type rec struct {
		Name  string `json:"name"`
		Count int    `json:"count"`
	}
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key("v", "mutated")
	v := rec{Name: "original-bytes", Count: 1}
	if err := Put(c, key, v); err != nil {
		t.Fatal(err)
	}
	v.Name, v.Count = "XXXXXXXX", 2
	// A fresh cache over the same directory sees only the disk tier.
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := rec{Name: "original-bytes", Count: 1}
	if got, ok := Get[rec](c2, key); !ok || got != want {
		t.Fatalf("disk tier holds %+v, %v; want %+v", got, ok, want)
	}
	// And the in-memory tier of the original cache agrees.
	if got, ok := Get[rec](c, key); !ok || got != want {
		t.Fatalf("memory tier holds %+v, %v; want %+v", got, ok, want)
	}
	data, err := os.ReadFile(filepath.Join(dir, key[:2], key[2:]+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, bytes := c.MemStats(); bytes != int64(len(data)) {
		t.Fatalf("memory tier charged %d bytes for a %d-byte entry", bytes, len(data))
	}
}

// TestUnencodableValueCachedNowhere: a value JSON cannot encode is refused
// by both tiers, and reading its key stays a miss.
func TestUnencodableValueCachedNowhere(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key("v", "nan")
	if err := Put(c, key, math.NaN()); err == nil {
		t.Fatal("a NaN record was accepted")
	}
	if n, _ := c.MemStats(); n != 0 {
		t.Fatalf("%d records in memory after a refused put", n)
	}
	if _, err := os.Stat(filepath.Join(dir, key[:2])); !os.IsNotExist(err) {
		t.Fatalf("a refused put touched the disk: %v", err)
	}
	if _, ok := Get[float64](c, key); ok {
		t.Fatal("a refused put reads as a hit")
	}
}
