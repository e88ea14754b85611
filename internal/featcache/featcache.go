// Package featcache is a content-addressed, persistent cache for per-file
// analysis results. The paper's §5.3 workflow re-runs the automated
// testbed on every code change; the deep analyses (symbolic execution,
// taint tracking, call-graph profiling) dominate that cost, and their
// results depend only on the bytes of one file. Keying each result by a
// hash of (analysis version, file content) lets an incremental run skip
// every file whose bytes did not change since the last run.
//
// Entries live both in memory (for repeated analyses inside one process)
// and, when a directory is configured, on disk as one small file per
// entry, sharded by the first byte of the key. The in-memory tier is a
// size-capped insertion-order window over the hot set — a long-running
// daemon must not grow its RSS with every file it ever analyzed — while
// the disk tier is durable: an evicted entry is a future disk hit, never a
// recomputation. Disk writes go through the shared durable-write helper
// (temp file, fsync, rename, directory fsync) so neither a crash nor a
// concurrent run can leave a truncated — or, after power loss, empty —
// entry a later run would trust. Unreadable or corrupt entries still read
// as misses (the cache recomputes rather than serving garbage), but
// corruption is counted (CorruptReads) so an operator sees it instead of
// it hiding inside the miss rate. A JSON entry is corrupt unless it is
// byte-for-byte the encoding of the value it decodes to; that catches
// structural damage, not a digit changed to another valid digit.
package featcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/system/durable"
)

// DefaultMemLimit caps the in-memory tier's payload bytes unless
// SetMemLimit overrides it. Entries are small JSON records (~200 bytes),
// so the default holds a few hundred thousand files' enrichments.
const DefaultMemLimit = 64 << 20

// Cache is a concurrency-safe content-addressed store. The zero value is
// unusable; construct with Open or NewMemory.
type Cache struct {
	dir string // "" means memory-only

	mu       sync.RWMutex
	mem      map[string][]byte
	order    []string // mem keys in insertion order; evictions pop the front
	memBytes int64
	maxBytes int64 // <= 0 disables the bound

	hits    atomic.Uint64
	misses  atomic.Uint64
	corrupt atomic.Uint64
}

// NewMemory returns a process-local cache with no disk backing.
func NewMemory() *Cache {
	return &Cache{mem: map[string][]byte{}, maxBytes: DefaultMemLimit}
}

// Open returns a cache persisted under dir, creating it if needed. An
// empty dir yields a memory-only cache.
func Open(dir string) (*Cache, error) {
	if dir == "" {
		return NewMemory(), nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("featcache: %w", err)
	}
	return &Cache{dir: dir, mem: map[string][]byte{}, maxBytes: DefaultMemLimit}, nil
}

// SetMemLimit bounds the in-memory tier to n payload bytes (n <= 0 removes
// the bound). Shrinking below the current footprint evicts immediately.
func (c *Cache) SetMemLimit(n int64) {
	c.mu.Lock()
	c.maxBytes = n
	c.evictLocked()
	c.mu.Unlock()
}

// MemStats reports the in-memory tier's entry count and payload bytes.
func (c *Cache) MemStats() (entries int, bytes int64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.mem), c.memBytes
}

// Key derives the content address of one analysis result: a SHA-256 over
// the analysis version and each part, length-prefixed so distinct part
// boundaries can never collide.
func Key(version string, parts ...string) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d:%s", len(version), version)
	for _, p := range parts {
		fmt.Fprintf(h, "%d:%s", len(p), p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// path shards entries by the first key byte to keep directories small.
func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key[:2], key[2:]+".json")
}

// storeMem inserts data into the bounded memory tier. Keys are content
// addresses, so a re-store of an existing key carries identical bytes and
// keeps its original eviction slot. Callers must hold c.mu.
func (c *Cache) storeMem(key string, data []byte) {
	if old, ok := c.mem[key]; ok {
		c.memBytes += int64(len(data)) - int64(len(old))
		c.mem[key] = data
	} else {
		c.mem[key] = data
		c.memBytes += int64(len(data))
		c.order = append(c.order, key)
	}
	c.evictLocked()
}

// evictLocked pops insertion-order entries until the tier fits the bound.
// Callers must hold c.mu.
func (c *Cache) evictLocked() {
	if c.maxBytes <= 0 {
		return
	}
	for c.memBytes > c.maxBytes && len(c.order) > 0 {
		k := c.order[0]
		c.order = c.order[1:]
		if d, ok := c.mem[k]; ok {
			c.memBytes -= int64(len(d))
			delete(c.mem, k)
		}
	}
}

// Get returns the cached bytes for key, checking memory first and then
// disk. A disk hit is promoted into memory (subject to the memory bound).
// The returned slice is shared with the cache and must not be modified.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.RLock()
	data, ok := c.mem[key]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		return data, true
	}
	if c.dir != "" {
		if data, err := os.ReadFile(c.path(key)); err == nil {
			c.mu.Lock()
			c.storeMem(key, data)
			c.mu.Unlock()
			c.hits.Add(1)
			return data, true
		}
	}
	c.misses.Add(1)
	return nil, false
}

// Put stores data under key in memory and, when disk-backed, atomically
// on disk. The cache copies data once up front and both tiers store that
// copy, so a caller mutating its slice after Put can never make the
// durable bytes diverge from the in-memory entry.
func (c *Cache) Put(key string, data []byte) error {
	cp := append([]byte(nil), data...)
	c.mu.Lock()
	c.storeMem(key, cp)
	c.mu.Unlock()
	if c.dir == "" {
		return nil
	}
	p := c.path(key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fmt.Errorf("featcache: %w", err)
	}
	if err := durable.WriteFile(p, cp, 0o644); err != nil {
		return fmt.Errorf("featcache: %w", err)
	}
	return nil
}

// GetJSON decodes the entry for key into v, which must be a pointer to a
// zero value of the type PutJSON stored. The entry counts only when
// re-encoding the decoded value reproduces the stored bytes exactly:
// json.Unmarshal alone accepts null, {}, missing or unknown fields and
// trailing blanks, and would serve such a record as a hit with zeroed
// fields. Corrupt entries read as misses so the caller recomputes (and its
// PutJSON overwrites the bad record), but each such read is counted in
// CorruptReads — silent corruption would otherwise be indistinguishable
// from a cold cache.
func (c *Cache) GetJSON(key string, v any) bool {
	data, ok := c.Get(key)
	if !ok {
		return false
	}
	if json.Unmarshal(data, v) != nil {
		c.corrupt.Add(1)
		return false
	}
	if enc, err := json.Marshal(v); err != nil || !bytes.Equal(enc, data) {
		c.corrupt.Add(1)
		return false
	}
	return true
}

// PutJSON stores v as JSON under key.
func (c *Cache) PutJSON(key string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("featcache: %w", err)
	}
	return c.Put(key, data)
}

// Stats reports lifetime hit and miss counts for this Cache value.
func (c *Cache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// CorruptReads reports how many reads decoded to garbage and were served
// as misses. A nonzero value on a healthy host means something else is
// writing into the cache directory (or the durability discipline was
// violated by an older build).
func (c *Cache) CorruptReads() uint64 {
	return c.corrupt.Load()
}
