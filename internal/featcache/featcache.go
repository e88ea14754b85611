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
// entry, sharded by the first byte of the key. The memory tier holds each
// record as the decoded value that was stored, so a memory hit is one map
// lookup and a copy of the value; the disk holds its JSON encoding. The
// memory tier is a size-capped insertion-order window over the hot set,
// charged the encoded length of each record — a long-running daemon must
// not grow its RSS with every file it ever analyzed — while the disk tier
// is durable: an evicted entry is a future disk hit, never a
// recomputation. Disk writes go through the shared durable-write helper
// (temp file, fsync, rename, directory fsync) so neither a crash nor a
// concurrent run can leave a truncated — or, after power loss, empty —
// entry a later run would trust.
//
// Records are validated where they enter from disk, and only there. An
// entry is corrupt unless it is byte-for-byte the encoding of the value it
// decodes to; that catches structural damage, not a digit changed to
// another valid digit. A corrupt entry reads as a miss (the cache
// recomputes rather than serving garbage) and never enters memory, but it
// is counted (CorruptReads) so an operator sees it instead of it hiding
// inside the miss rate.
package featcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/system/durable"
)

// DefaultMemLimit caps the encoded bytes of the records the memory tier
// holds unless SetMemLimit overrides it. Records are small (~200 bytes of
// JSON for an enrichment, ~1.4 KB for a findings list), so the default
// holds tens of thousands of files' records.
const DefaultMemLimit = 64 << 20

// Cache is a concurrency-safe content-addressed store. The zero value is
// unusable; construct with Open or NewMemory.
type Cache struct {
	dir string // "" means memory-only

	mu       sync.RWMutex
	mem      map[string]entry
	order    []string // mem keys in insertion order; evictions pop the front
	memBytes int64
	maxBytes int64 // <= 0 disables the bound

	hits    atomic.Uint64
	misses  atomic.Uint64
	corrupt atomic.Uint64
}

// entry is one record of the memory tier: the decoded value, shared by
// every reader and never mutated, and the length of its JSON encoding,
// which is what the tier's budget is charged.
type entry struct {
	val  any
	size int64
}

// NewMemory returns a process-local cache with no disk backing.
func NewMemory() *Cache {
	return &Cache{mem: map[string]entry{}, maxBytes: DefaultMemLimit}
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
	return &Cache{dir: dir, mem: map[string]entry{}, maxBytes: DefaultMemLimit}, nil
}

// SetMemLimit bounds the memory tier to n encoded bytes (n <= 0 removes the
// bound). Shrinking below the current footprint evicts immediately.
func (c *Cache) SetMemLimit(n int64) {
	c.mu.Lock()
	c.maxBytes = n
	c.evictLocked()
	c.mu.Unlock()
}

// MemStats reports the memory tier's entry count and the encoded bytes of
// its records, the footprint its limit bounds.
func (c *Cache) MemStats() (entries int, bytes int64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.mem), c.memBytes
}

// Key derives the content address of one analysis result: a SHA-256 over
// the analysis version and each part, length-prefixed so distinct part
// boundaries can never collide.
func Key(version string, parts ...string) string {
	n := len(version) + 21 // a decimal int64 and the colon fit in 21 bytes
	for _, p := range parts {
		n += len(p) + 21
	}
	// The hash input of a typical source file fits on the stack; a larger
	// one is allocated once at its full size.
	var stack [4096]byte
	buf := stack[:0]
	if n > len(stack) {
		buf = make([]byte, 0, n)
	}
	buf = appendPart(buf, version)
	for _, p := range parts {
		buf = appendPart(buf, p)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// appendPart appends one length-prefixed part of a key's hash input: the
// part's decimal length, a colon, then its bytes.
func appendPart(buf []byte, p string) []byte {
	buf = strconv.AppendInt(buf, int64(len(p)), 10)
	buf = append(buf, ':')
	return append(buf, p...)
}

// path shards entries by the first key byte to keep directories small.
func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key[:2], key[2:]+".json")
}

// storeMem inserts e into the bounded memory tier. Keys are content
// addresses, so a re-store of an existing key carries an equal record and
// keeps its original eviction slot. Callers must hold c.mu.
func (c *Cache) storeMem(key string, e entry) {
	if old, ok := c.mem[key]; ok {
		c.memBytes += e.size - old.size
	} else {
		c.memBytes += e.size
		c.order = append(c.order, key)
	}
	c.mem[key] = e
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
		if e, ok := c.mem[k]; ok {
			c.memBytes -= e.size
			delete(c.mem, k)
		}
	}
}

// Get returns the record of type T stored under key, checking memory first
// and then disk. A memory hit is the value itself, shared with every other
// reader: a caller must copy whatever it would mutate, such as a slice the
// record holds. A disk entry counts only when re-encoding the value it
// decodes to reproduces its bytes exactly: json.Unmarshal alone accepts
// null, {}, missing or unknown fields and trailing blanks, and would serve
// such a record as a hit with zeroed fields. A valid disk entry is promoted
// into memory (subject to the memory bound). A corrupt one reads as a miss,
// so the caller recomputes and its Put overwrites the bad record; it never
// enters memory, and each such read is counted in CorruptReads — silent
// corruption would otherwise be indistinguishable from a cold cache.
func Get[T any](c *Cache, key string) (T, bool) {
	c.mu.RLock()
	e := c.mem[key]
	c.mu.RUnlock()
	if v, ok := e.val.(T); ok {
		c.hits.Add(1)
		return v, true
	}
	if c.dir != "" {
		if data, err := os.ReadFile(c.path(key)); err == nil {
			var v T
			if decodesExactly(data, &v) {
				c.mu.Lock()
				c.storeMem(key, entry{val: v, size: int64(len(data))})
				c.mu.Unlock()
				c.hits.Add(1)
				return v, true
			}
			c.corrupt.Add(1)
		}
	}
	c.misses.Add(1)
	var zero T
	return zero, false
}

// decodesExactly decodes data into v and reports whether v re-encodes to
// exactly data.
func decodesExactly[T any](data []byte, v *T) bool {
	if json.Unmarshal(data, v) != nil {
		return false
	}
	enc, err := json.Marshal(v)
	return err == nil && bytes.Equal(enc, data)
}

// Put stores v under key: in memory as the value itself, charged the
// length of its JSON encoding, and, when disk-backed, that encoding
// atomically on disk. The memory tier shares v with every later reader, so
// the caller must not mutate anything v references after Put. A value that
// fails to encode is cached nowhere. The value must decode from its own
// encoding to an equal value, or a memory hit would serve what a disk hit
// of the same record would not.
func Put[T any](c *Cache, key string, v T) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("featcache: %w", err)
	}
	c.mu.Lock()
	c.storeMem(key, entry{val: v, size: int64(len(data))})
	c.mu.Unlock()
	if c.dir == "" {
		return nil
	}
	p := c.path(key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fmt.Errorf("featcache: %w", err)
	}
	if err := durable.WriteFile(p, data, 0o644); err != nil {
		return fmt.Errorf("featcache: %w", err)
	}
	return nil
}

// Stats reports lifetime hit and miss counts for this Cache value. A
// corrupt read is a miss.
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
