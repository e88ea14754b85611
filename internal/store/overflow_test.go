package store

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
)

// residentOverflow counts the overflow pages in the page cache, split by
// whether they still live only in the WAL.
func residentOverflow(db *DB) (clean, dirty int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for pgid, p := range db.cache {
		if pageFlags(p) != flagOverflow {
			continue
		}
		if _, ok := db.dirty[pgid]; ok {
			dirty++
		} else {
			clean++
		}
	}
	return clean, dirty
}

// largeValue is a deterministic value of n bytes, distinct per (key, gen).
func largeValue(key, gen, n int) []byte {
	v := make([]byte, n)
	for i := range v {
		v[i] = byte(i*31 + key*7 + gen*13)
	}
	return v
}

// largeSizes straddle the inline bound and the page payload: one byte over
// the inline bound, a chain of exactly one full page, one byte into a
// second page, and a 25 KB row like a recorded findings run.
var largeSizes = []int{maxInlineValue + 1, payloadSize, payloadSize + 1, 25 << 10}

func putLarge(t *testing.T, db *DB, keys, gen int) {
	t.Helper()
	for k := 0; k < keys; k++ {
		if err := db.Update(func(tx *Tx) error {
			return tx.Put([]byte(fmt.Sprintf("row-%03d", k)), largeValue(k, gen, largeSizes[k%len(largeSizes)]))
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// checkLarge reads every large value of generation gen through get.
func checkLarge(t *testing.T, label string, keys, gen int, get func(key []byte) ([]byte, bool, error)) {
	t.Helper()
	for k := 0; k < keys; k++ {
		v, ok, err := get([]byte(fmt.Sprintf("row-%03d", k)))
		if err != nil || !ok {
			t.Fatalf("%s: row-%03d: found=%v err=%v", label, k, ok, err)
		}
		if want := largeValue(k, gen, largeSizes[k%len(largeSizes)]); !bytes.Equal(v, want) {
			t.Fatalf("%s: row-%03d read back %d bytes that differ from the %d written", label, k, len(v), len(want))
		}
	}
}

func viewGet(db *DB) func(key []byte) ([]byte, bool, error) {
	return func(key []byte) (v []byte, ok bool, err error) {
		err = db.View(func(s *Snapshot) error {
			v, ok, err = s.Get(key)
			return err
		})
		return v, ok, err
	}
}

// TestCheckpointDropsCleanOverflowPages: overflow pages stay resident only
// while they live in the WAL alone. A checkpoint drops them, and reading a
// value after the checkpoint serves its pages from the page file without
// caching them, so only B+tree nodes remain.
func TestCheckpointDropsCleanOverflowPages(t *testing.T) {
	db, _ := openTemp(t, Options{})
	defer db.Close()
	const keys = 24
	putLarge(t, db, keys, 0)
	if clean, dirty := residentOverflow(db); clean != 0 || dirty == 0 {
		t.Fatalf("before the checkpoint: %d clean and %d dirty overflow pages resident, want 0 and some", clean, dirty)
	}
	if err := db.checkpoint(); err != nil {
		t.Fatal(err)
	}
	if clean, dirty := residentOverflow(db); clean != 0 || dirty != 0 {
		t.Fatalf("after the checkpoint: %d clean and %d dirty overflow pages resident, want none", clean, dirty)
	}
	nodes := db.Stats().CachedPages
	checkLarge(t, "after the checkpoint", keys, 0, viewGet(db))
	if clean, _ := residentOverflow(db); clean != 0 {
		t.Fatalf("reading the values cached %d clean overflow pages", clean)
	}
	if got := db.Stats().CachedPages; got != nodes {
		t.Fatalf("reading the values moved the cache from %d to %d pages", nodes, got)
	}

	// An overwrite's new chain is dirty again until the next checkpoint.
	putLarge(t, db, 4, 1)
	if _, dirty := residentOverflow(db); dirty == 0 {
		t.Fatal("a new value's overflow pages are not resident before the checkpoint")
	}
}

// TestLargeValuesReadBack: values over the inline bound read back byte for
// byte after a checkpoint, after a reopen, through a snapshot taken before
// a concurrent writer's commits and checkpoints, and through an 8-page
// cache, where every read of a clean page goes to the page file.
func TestLargeValuesReadBack(t *testing.T) {
	for _, opts := range []Options{
		{CheckpointWALBytes: 256 << 10},
		{CheckpointWALBytes: 256 << 10, CacheLimitPages: 8},
	} {
		t.Run(fmt.Sprintf("cache=%d", opts.CacheLimitPages), func(t *testing.T) {
			db, path := openTemp(t, opts)
			const keys = 12
			putLarge(t, db, keys, 0)
			checkLarge(t, "before the checkpoint", keys, 0, viewGet(db))
			if err := db.checkpoint(); err != nil {
				t.Fatal(err)
			}
			checkLarge(t, "after the checkpoint", keys, 0, viewGet(db))

			snap, err := db.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			writerDone := make(chan struct{})
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer close(writerDone)
				for gen := 1; gen <= 6; gen++ {
					for k := 0; k < keys; k++ {
						err := db.Update(func(tx *Tx) error {
							return tx.Put([]byte(fmt.Sprintf("row-%03d", k)), largeValue(k, gen, largeSizes[k%len(largeSizes)]))
						})
						if err != nil {
							t.Errorf("writer gen %d row %d: %v", gen, k, err)
							return
						}
					}
				}
			}()
			for reading := true; reading; {
				select {
				case <-writerDone:
					reading = false
				default:
				}
				checkLarge(t, "through the pinned snapshot", keys, 0, snap.Get)
			}
			wg.Wait()
			if db.Stats().Checkpoints < 2 {
				t.Fatalf("the writer's commits ran %d checkpoints; the snapshot was not read across one", db.Stats().Checkpoints)
			}
			snap.Release()
			checkLarge(t, "after the writer", keys, 6, viewGet(db))
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			db, err = Open(path, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			checkLarge(t, "after a reopen", keys, 6, viewGet(db))
			if clean, dirty := residentOverflow(db); clean != 0 || dirty != 0 {
				t.Fatalf("after a reopen: %d clean and %d dirty overflow pages resident", clean, dirty)
			}
		})
	}
}

// TestReadOverflowBoundsDeclaredLength: a damaged cell may declare up to
// 4 GiB. Reading its one-page chain refuses it as short without reserving
// the declared length up front.
func TestReadOverflowBoundsDeclaredLength(t *testing.T) {
	pages := map[uint64][]byte{}
	head := encodeOverflow(largeValue(0, 0, 2000), func() uint64 { return 1 }, func(pgid uint64, p []byte) { pages[pgid] = p })
	read := func(pgid uint64) ([]byte, error) { return pages[pgid], nil }
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readOverflow(head, math.MaxUint32, read)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*maxPreallocValue {
		t.Fatalf("refusing a 4 GiB declared length allocated %d bytes", got)
	}
}

// FuzzReadOverflow reads an overflow chain out of arbitrary page bytes.
// The harness cuts the input into pages with ids 1..n, re-seals each page's
// CRC as FuzzDecodeNode does (so every input reaches the structural checks
// behind the checksum), and reads the chain at head through overflowChain
// and readOverflow; an id outside 1..n reads as a corrupt page. Neither may
// panic, every refusal is ErrCorrupt, an accepted value has exactly the
// declared length and is the concatenation of the chain's payloads, and
// encodeOverflow then readOverflow is the identity on the input's bytes and
// on every accepted value.
func FuzzReadOverflow(f *testing.F) {
	const maxPages = 8
	seed := func(val []byte, vlen uint16) {
		var pages [][]byte
		next := uint64(1)
		head := encodeOverflow(val, func() uint64 { next++; return next - 1 }, func(_ uint64, p []byte) { pages = append(pages, p) })
		f.Add(bytes.Join(pages, nil), uint8(head), vlen)
	}
	seed(largeValue(1, 0, maxInlineValue+1), maxInlineValue+1)
	seed(largeValue(2, 0, 2*payloadSize+5), 2*payloadSize+5)
	seed(largeValue(3, 0, 2*payloadSize+5), 2*payloadSize)                    // declared short
	seed(largeValue(4, 0, payloadSize), payloadSize+1)                        // declared long
	f.Add([]byte{flagOverflow, 0, 0, 0, 0, 0, 0, 0, 1}, uint8(1), uint16(10)) // empty page linking to itself

	f.Fuzz(func(t *testing.T, data []byte, head uint8, vlen uint16) {
		pages := map[uint64][]byte{}
		for i := 0; i < maxPages && i*pageSize < len(data); i++ {
			p := make([]byte, pageSize)
			copy(p, data[i*pageSize:])
			sealPage(p)
			pages[uint64(i+1)] = p
		}
		read := func(pgid uint64) ([]byte, error) {
			if p, ok := pages[pgid]; ok {
				return p, nil
			}
			return nil, fmt.Errorf("%w: no page %d", ErrCorrupt, pgid)
		}
		ids, chainErr := overflowChain(uint64(head), int(vlen), read)
		if chainErr != nil && !errors.Is(chainErr, ErrCorrupt) {
			t.Fatalf("overflowChain refusal is not ErrCorrupt: %v", chainErr)
		}
		val, err := readOverflow(uint64(head), int(vlen), read)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("readOverflow refusal is not ErrCorrupt: %v", err)
			}
		} else {
			if len(val) != int(vlen) {
				t.Fatalf("accepted value has %d bytes, declared %d", len(val), vlen)
			}
			if chainErr != nil {
				t.Fatalf("readOverflow accepted a chain overflowChain refuses: %v", chainErr)
			}
			var joined []byte
			for _, id := range ids {
				p := pages[id]
				joined = append(joined, p[pageHeaderSize:pageHeaderSize+int(pageDataLen(p))]...)
			}
			if !bytes.Equal(joined, val) {
				t.Fatal("accepted value is not the concatenation of its chain's payloads")
			}
			roundTrip(t, val)
		}
		roundTrip(t, data)
	})
}

// roundTrip checks that encodeOverflow then readOverflow returns val.
func roundTrip(t *testing.T, val []byte) {
	t.Helper()
	if len(val) == 0 {
		return // a value spills to a chain only past the inline bound
	}
	pages := map[uint64][]byte{}
	next := uint64(1)
	head := encodeOverflow(val, func() uint64 { next++; return next - 1 }, func(pgid uint64, p []byte) { pages[pgid] = p })
	got, err := readOverflow(head, len(val), func(pgid uint64) ([]byte, error) { return pages[pgid], nil })
	if err != nil || !bytes.Equal(got, val) {
		t.Fatalf("encodeOverflow then readOverflow of %d bytes: err %v, equal %v", len(val), err, bytes.Equal(got, val))
	}
}
