package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func openTemp(t *testing.T, opts Options) (*DB, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.db")
	db, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	return db, path
}

func mustPut(t *testing.T, db *DB, key, val string) {
	t.Helper()
	if err := db.Update(func(tx *Tx) error { return tx.Put([]byte(key), []byte(val)) }); err != nil {
		t.Fatalf("put %q: %v", key, err)
	}
}

func mustGet(t *testing.T, db *DB, key string) (string, bool) {
	t.Helper()
	var out string
	var found bool
	if err := db.View(func(s *Snapshot) error {
		v, ok, err := s.Get([]byte(key))
		out, found = string(v), ok
		return err
	}); err != nil {
		t.Fatalf("get %q: %v", key, err)
	}
	return out, found
}

// collect scans the whole tree into an ordered flat byte signature, the
// comparison currency of the byte-parity tests.
func collect(t *testing.T, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Scan(nil, nil, func(k, v []byte) (bool, error) {
		fmt.Fprintf(&buf, "%q=%q;", k, v)
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestPutGetDeleteRoundTrip(t *testing.T) {
	db, _ := openTemp(t, Options{})
	defer db.Close()
	if _, ok := mustGet(t, db, "missing"); ok {
		t.Fatal("empty db reported a hit")
	}
	mustPut(t, db, "alpha", "1")
	mustPut(t, db, "beta", "2")
	mustPut(t, db, "alpha", "one") // overwrite
	if v, ok := mustGet(t, db, "alpha"); !ok || v != "one" {
		t.Fatalf("alpha = %q, %v", v, ok)
	}
	if v, ok := mustGet(t, db, "beta"); !ok || v != "2" {
		t.Fatalf("beta = %q, %v", v, ok)
	}
}

func TestKeyValidation(t *testing.T) {
	db, _ := openTemp(t, Options{})
	defer db.Close()
	err := db.Update(func(tx *Tx) error { return tx.Put(nil, []byte("v")) })
	if !errors.Is(err, ErrEmptyKey) {
		t.Fatalf("empty key: %v", err)
	}
	err = db.Update(func(tx *Tx) error { return tx.Put(make([]byte, maxKey+1), []byte("v")) })
	if !errors.Is(err, ErrKeyTooLarge) {
		t.Fatalf("oversized key: %v", err)
	}
}

func TestTxDoneAndRollback(t *testing.T) {
	db, _ := openTemp(t, Options{})
	defer db.Close()
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Put([]byte("k"), []byte("v")); !errors.Is(err, ErrTxDone) {
		t.Fatalf("put after rollback: %v", err)
	}
	if _, ok := mustGet(t, db, "k"); ok {
		t.Fatal("rolled-back write is visible")
	}
	// A fresh writer can begin immediately (the slot was released).
	mustPut(t, db, "k2", "v2")
}

func TestTxReadsOwnWrites(t *testing.T) {
	db, _ := openTemp(t, Options{})
	defer db.Close()
	mustPut(t, db, "committed", "c")
	err := db.Update(func(tx *Tx) error {
		if err := tx.Put([]byte("mine"), []byte("m")); err != nil {
			return err
		}
		v, ok, err := tx.Get([]byte("mine"))
		if err != nil || !ok || string(v) != "m" {
			return fmt.Errorf("own write invisible: %q %v %v", v, ok, err)
		}
		v, ok, err = tx.Get([]byte("committed"))
		if err != nil || !ok || string(v) != "c" {
			return fmt.Errorf("committed key invisible in tx: %q %v %v", v, ok, err)
		}
		if err := tx.Put([]byte("committed"), []byte("o")); err != nil {
			return err
		}
		if v, ok, err := tx.Get([]byte("committed")); err != nil || !ok || string(v) != "o" {
			return fmt.Errorf("own overwrite invisible: %q %v %v", v, ok, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOverflowValues(t *testing.T) {
	db, path := openTemp(t, Options{})
	big := make([]byte, 3*pageSize+517) // spans 4 overflow pages
	for i := range big {
		big[i] = byte(i * 31)
	}
	if err := db.Update(func(tx *Tx) error { return tx.Put([]byte("big"), big) }); err != nil {
		t.Fatal(err)
	}
	check := func(db *DB, want []byte) {
		t.Helper()
		if err := db.View(func(s *Snapshot) error {
			v, ok, err := s.Get([]byte("big"))
			if err != nil || !ok {
				return fmt.Errorf("big missing: %v %v", ok, err)
			}
			if !bytes.Equal(v, want) {
				return fmt.Errorf("big value mangled: %d bytes, want %d", len(v), len(want))
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	check(db, big)
	// Overwrite with a different big value frees the old chain.
	big2 := bytes.Repeat([]byte("xyz"), 2000)
	if err := db.Update(func(tx *Tx) error { return tx.Put([]byte("big"), big2) }); err != nil {
		t.Fatal(err)
	}
	check(db, big2)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	check(db2, big2)
}

func TestManyKeysSplitAndScanOrder(t *testing.T) {
	db, path := openTemp(t, Options{})
	const n = 3000 // forces multiple levels of splits
	perm := rand.New(rand.NewSource(7)).Perm(n)
	for _, i := range perm {
		mustPut(t, db, fmt.Sprintf("key-%06d", i), fmt.Sprintf("val-%d", i))
	}
	verify := func(db *DB) {
		t.Helper()
		var seen int
		var prev []byte
		if err := db.View(func(s *Snapshot) error {
			return s.Scan(nil, nil, func(k, v []byte) (bool, error) {
				if prev != nil && bytes.Compare(prev, k) >= 0 {
					return false, fmt.Errorf("scan out of order: %q then %q", prev, k)
				}
				prev = append(prev[:0], k...)
				want := fmt.Sprintf("val-%s", bytes.TrimLeft(k[len("key-"):], "0"))
				if string(k) == "key-000000" {
					want = "val-0"
				}
				if string(v) != want {
					return false, fmt.Errorf("%q = %q, want %q", k, v, want)
				}
				seen++
				return true, nil
			})
		}); err != nil {
			t.Fatal(err)
		}
		if seen != n {
			t.Fatalf("scan saw %d keys, want %d", seen, n)
		}
	}
	verify(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	verify(db2)

	// Range scan semantics: [start, end) half-open.
	var got []string
	if err := db2.View(func(s *Snapshot) error {
		return s.Scan([]byte("key-000010"), []byte("key-000013"), func(k, v []byte) (bool, error) {
			got = append(got, string(k))
			return true, nil
		})
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{"key-000010", "key-000011", "key-000012"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("range scan = %v, want %v", got, want)
	}
	// Early stop.
	count := 0
	if err := db2.View(func(s *Snapshot) error {
		return s.Scan(nil, nil, func(k, v []byte) (bool, error) {
			count++
			return count < 5, nil
		})
	}); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Fatalf("early stop scanned %d", count)
	}
}

func TestFreelistBoundsFileGrowth(t *testing.T) {
	db, _ := openTemp(t, Options{CheckpointWALBytes: 256 << 10})
	defer db.Close()
	// 100 keys overwritten 50 times: without page reuse this would
	// allocate ~5000 fresh pages; with the freelist the file stays small.
	for round := 0; round < 50; round++ {
		if err := db.Update(func(tx *Tx) error {
			for i := 0; i < 100; i++ {
				if err := tx.Put([]byte(fmt.Sprintf("key-%03d", i)), []byte(fmt.Sprintf("round-%d", round))); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if pc := db.Stats().PageCount; pc > 200 {
		t.Fatalf("page file grew to %d pages under churn; freelist broken", pc)
	}
}

// TestSnapshotParityUnderConcurrentWriter is the MVCC acceptance test: a
// snapshot's full-scan signature stays byte-identical while a concurrent
// writer commits 100 transactions. Run under -race this also proves the
// reader/writer paths share no unsynchronized state.
func TestSnapshotParityUnderConcurrentWriter(t *testing.T) {
	db, _ := openTemp(t, Options{CheckpointWALBytes: 64 << 10})
	defer db.Close()
	for i := 0; i < 50; i++ {
		mustPut(t, db, fmt.Sprintf("seed-%03d", i), fmt.Sprintf("v%d", i))
	}
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	baseline := collect(t, snap)

	var wg sync.WaitGroup
	writerDone := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(writerDone)
		for c := 0; c < 100; c++ {
			err := db.Update(func(tx *Tx) error {
				if err := tx.Put([]byte(fmt.Sprintf("new-%03d", c)), []byte("n")); err != nil {
					return err
				}
				if err := tx.Put([]byte(fmt.Sprintf("seed-%03d", c%50)), []byte(fmt.Sprintf("rewritten-%d", c))); err != nil {
					return err
				}
				return tx.Put([]byte(fmt.Sprintf("new-%03d", c/2)), []byte("o"))
			})
			if err != nil {
				t.Errorf("writer commit %d: %v", c, err)
				return
			}
		}
	}()
	// Two concurrent readers hammer the pinned snapshot while the writer
	// churns; every signature must match the baseline byte for byte.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-writerDone:
					return
				default:
				}
				if sig := collect(t, snap); !bytes.Equal(sig, baseline) {
					t.Errorf("snapshot drifted under concurrent writer:\n got %s\nwant %s", sig, baseline)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// One more full comparison after all 100 commits landed.
	if sig := collect(t, snap); !bytes.Equal(sig, baseline) {
		t.Fatalf("snapshot drifted after writer finished")
	}
	snap.Release()
	// A fresh snapshot sees the writer's world.
	if v, ok := mustGet(t, db, "seed-000"); !ok || v != "rewritten-50" {
		t.Fatalf("post-writer state wrong: seed-000 = %q, %v", v, ok)
	}
}

func TestReopenAfterAbandonReplaysWAL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.db")
	db, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		mustPut(t, db, fmt.Sprintf("k%03d", i), fmt.Sprintf("v%d", i))
	}
	// Abandon = process kill: no checkpoint, data only in WAL.
	if err := db.Abandon(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < 200; i++ {
		if v, ok := mustGet(t, db2, fmt.Sprintf("k%03d", i)); !ok || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%03d lost across crash-reopen: %q %v", i, v, ok)
		}
	}
	// Checkpoint-on-open migrated the WAL into the page file.
	if wb := db2.Stats().WALBytes; wb != 0 {
		t.Fatalf("WAL not reset after recovery checkpoint: %d bytes", wb)
	}
}

// TestCrashRecoveryTorture kills the store at randomized WAL offsets
// mid-commit via the injection hook, reopens, and asserts every
// acknowledged commit is readable and no torn state is served.
func TestCrashRecoveryTorture(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5ec))
	for iter := 0; iter < 20; iter++ {
		crashAt := int64(200 + rng.Intn(150_000))
		opts := Options{CrashWALBytes: crashAt}
		if iter%3 == 0 {
			// Exercise the checkpoint path interleaved with the crash.
			opts.CheckpointWALBytes = 16 << 10
		}
		path := filepath.Join(t.TempDir(), "test.db")
		db, err := Open(path, opts)
		if err != nil {
			t.Fatal(err)
		}
		acked := make(map[string]string)
		for i := 0; i < 5000; i++ {
			key := fmt.Sprintf("key-%05d", i%700)
			vlen := 1 + rng.Intn(64)
			if rng.Intn(20) == 0 {
				vlen = maxInlineValue + rng.Intn(3*pageSize) // overflow values too
			}
			val := fmt.Sprintf("iter%d-i%d-", iter, i)
			val += string(bytes.Repeat([]byte{byte('a' + i%26)}, vlen))
			err := db.Update(func(tx *Tx) error { return tx.Put([]byte(key), []byte(val)) })
			if err != nil {
				if !errors.Is(err, ErrCrashInjected) {
					t.Fatalf("iter %d: unexpected commit error: %v", iter, err)
				}
				break
			}
			acked[key] = val
		}
		// Later writes must be refused: the store failed sticky.
		if err := db.Update(func(tx *Tx) error { return tx.Put([]byte("x"), []byte("y")) }); err == nil {
			t.Fatalf("iter %d: write accepted after injected crash", iter)
		}
		db.Abandon()

		db2, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("iter %d: reopen after crash: %v", iter, err)
		}
		for k, want := range acked {
			v, ok, err := func() ([]byte, bool, error) {
				s, err := db2.Snapshot()
				if err != nil {
					return nil, false, err
				}
				defer s.Release()
				return s.Get([]byte(k))
			}()
			if err != nil || !ok || string(v) != want {
				t.Fatalf("iter %d (crashAt=%d): acked key %q lost or torn after recovery: ok=%v err=%v",
					iter, crashAt, k, ok, err)
			}
		}
		// And the whole tree is structurally sound: a full scan sees
		// exactly the acked keys (unacked tail commits may or may not
		// survive — here the failing commit was never acked, so the only
		// keys are acked ones, possibly at older acked values... no:
		// every Put of a key was acked or the loop stopped, so the map
		// holds the last acked value per key, which is what must serve).
		seen := 0
		err = db2.View(func(s *Snapshot) error {
			return s.Scan(nil, nil, func(k, v []byte) (bool, error) {
				want, ok := acked[string(k)]
				if !ok {
					return false, fmt.Errorf("unacked key %q surfaced after recovery", k)
				}
				if string(v) != want {
					return false, fmt.Errorf("key %q has torn value after recovery", k)
				}
				seen++
				return true, nil
			})
		})
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if seen != len(acked) {
			t.Fatalf("iter %d: scan saw %d keys, acked %d", iter, seen, len(acked))
		}
		db2.Close()
	}
}

func TestMetaSlotFallback(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.db")
	db, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, db, "gen1", "a")
	if err := db.Close(); err != nil { // checkpoint -> meta slot txid%2
		t.Fatal(err)
	}
	db, err = Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, db, "gen2", "b")
	if err := db.Close(); err != nil { // meta in the other slot, higher txid
		t.Fatal(err)
	}
	// Tear the newest meta slot: Open must fall back to the older one
	// instead of refusing (or worse, trusting garbage).
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	for slot := int64(0); slot < 2; slot++ {
		buf := make([]byte, pageSize)
		if _, err := f.ReadAt(buf, slot*pageSize); err != nil {
			t.Fatal(err)
		}
		txid, _, _, ok := decodeMeta(buf)
		if ok && txid >= 2 {
			if _, err := f.WriteAt([]byte("XXXX"), slot*pageSize+12); err != nil {
				t.Fatal(err)
			}
		}
	}
	f.Close()
	db, err = Open(path, Options{})
	if err != nil {
		t.Fatalf("open with one torn meta slot: %v", err)
	}
	defer db.Close()
	if _, ok := mustGet(t, db, "gen1"); !ok {
		t.Fatal("fallback meta lost gen1")
	}
}

func TestCorruptBothMetasRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.db")
	db, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, db, "k", "v")
	db.Close()
	if err := os.WriteFile(path, bytes.Repeat([]byte{0xff}, 2*pageSize), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open over trashed metas: %v, want ErrCorrupt", err)
	}
}

func TestSnapshotAfterRelease(t *testing.T) {
	db, _ := openTemp(t, Options{})
	defer db.Close()
	mustPut(t, db, "k", "v")
	s, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	s.Release()
	s.Release() // idempotent
	if _, _, err := s.Get([]byte("k")); !errors.Is(err, ErrReleased) {
		t.Fatalf("get on released snapshot: %v", err)
	}
}

func TestStatsShape(t *testing.T) {
	db, _ := openTemp(t, Options{})
	defer db.Close()
	for i := 0; i < 10; i++ {
		mustPut(t, db, fmt.Sprintf("k%d", i), "v")
	}
	st := db.Stats()
	if st.TxID != 10 || st.Commits != 10 {
		t.Fatalf("stats txid=%d commits=%d, want 10/10", st.TxID, st.Commits)
	}
	if st.PageCount < firstDataPage+1 {
		t.Fatalf("implausible page count %d", st.PageCount)
	}
	s, _ := db.Snapshot()
	if got := db.Stats().ActiveSnapshots; got != 1 {
		t.Fatalf("ActiveSnapshots = %d, want 1", got)
	}
	s.Release()
}

func TestCacheEvictionKeepsReadsCorrect(t *testing.T) {
	// A tiny cache forces constant eviction and re-reads from disk; with a
	// checkpoint threshold low enough that pages reach the page file.
	db, _ := openTemp(t, Options{CacheLimitPages: 8, CheckpointWALBytes: 8 << 10})
	defer db.Close()
	const n = 500
	for i := 0; i < n; i++ {
		mustPut(t, db, fmt.Sprintf("key-%04d", i), fmt.Sprintf("val-%d", i))
	}
	for i := 0; i < n; i++ {
		if v, ok := mustGet(t, db, fmt.Sprintf("key-%04d", i)); !ok || v != fmt.Sprintf("val-%d", i) {
			t.Fatalf("key-%04d via evicting cache: %q %v", i, v, ok)
		}
	}
	if cp := db.Stats().CachedPages; cp > 64 {
		t.Fatalf("cache did not evict: %d pages resident", cp)
	}
}
