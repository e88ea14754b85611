package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// fiveRowStore writes a closed store holding five small rows in one leaf,
// and returns its bytes: the two meta slots and page 2, the root. Slot 1
// holds the commit (txid 1); slot 0 still describes the empty store.
func fiveRowStore(t testing.TB, path string) []byte {
	t.Helper()
	db, err := Open(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Update(func(tx *Tx) error {
		for i := 0; i < 5; i++ {
			if err := tx.Put([]byte(fmt.Sprintf("row-%d", i)), []byte(fmt.Sprintf("value-%d", i))); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil || len(b) != 3*pageSize {
		t.Fatalf("five-row store: %d bytes, %v; want a three-page file", len(b), err)
	}
	return b
}

// writeMetas overwrites meta slot 0 and slot 1 with sealed metas.
func writeMetas(t testing.TB, path string, slot0, slot1 [3]uint64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i, m := range [][3]uint64{slot0, slot1} {
		if _, err := f.WriteAt(encodeMeta(m[0], m[1], m[2]), int64(i)*pageSize); err != nil {
			t.Fatal(err)
		}
	}
}

// scanRows lists a store's rows as "key=value" in scan order, up to the
// first error, which must be ErrCorrupt.
func scanRows(t testing.TB, db *DB) []string {
	t.Helper()
	var rows []string
	err := db.View(func(s *Snapshot) error {
		return s.Scan(nil, nil, func(k, v []byte) (bool, error) {
			rows = append(rows, fmt.Sprintf("%q=%q", k, v))
			return true, nil
		})
	})
	if err != nil && !errors.Is(err, ErrCorrupt) {
		t.Fatalf("scan refusal is not ErrCorrupt: %v", err)
	}
	return rows
}

// TestOpenRefusesWhatFilesCannotBack: a meta slot or log record whose CRC
// checks out, but whose page count or page ids the files cannot back, is
// refused with ErrCorrupt, a meta slot falling back to the other slot as
// for a bad CRC. A page count of 0 used to open cleanly and let the next
// commit allocate page 0, a meta slot, so the store lost its rows at the
// following Open.
func TestOpenRefusesWhatFilesCannotBack(t *testing.T) {
	dir := t.TempDir()
	baseBytes := fiveRowStore(t, filepath.Join(dir, "base.db"))
	const root = firstDataPage
	leaf := baseBytes[root*pageSize : (root+1)*pageSize]
	empty := [3]uint64{0, 0, firstDataPage}
	record := func(pageCount uint64, pgid uint64) []byte {
		return encodeRecord(2, pgid, pageCount, []uint64{pgid}, map[uint64][]byte{pgid: leaf})
	}
	for _, tc := range []struct {
		name         string
		slot0, slot1 [3]uint64
		log          []byte
	}{
		{"page count 0 in both slots", [3]uint64{0, 0, 0}, [3]uint64{1, root, 0}, nil},
		{"page count at the root", empty, [3]uint64{1, root, root}, nil},
		{"root past the page file's end", empty, [3]uint64{1, 7, 10}, nil},
		{"log record with page count 1", empty, [3]uint64{1, root, 3}, record(1, root)},
		{"log record writing a meta slot", empty, [3]uint64{1, root, 3}, record(4, 1)},
		{"log record writing its page count", empty, [3]uint64{1, root, 3}, record(4, 4)},
		{"log record writing past what the files hold", empty, [3]uint64{1, root, 3}, record(1<<16+1, 1<<16)},
	} {
		path := filepath.Join(dir, "case.db")
		if err := os.WriteFile(path, baseBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path+"-wal", tc.log, 0o644); err != nil {
			t.Fatal(err)
		}
		writeMetas(t, path, tc.slot0, tc.slot1)
		db, err := Open(path, Options{NoSync: true})
		if err == nil {
			db.Close()
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Open = %v, want ErrCorrupt", tc.name, err)
		}
	}

	// One unusable slot falls back to the other.
	path := filepath.Join(dir, "fallback.db")
	if err := os.WriteFile(path, baseBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	writeMetas(t, path, [3]uint64{0, root, 3}, [3]uint64{1, root, 0})
	db, err := Open(path, Options{NoSync: true})
	if err != nil {
		t.Fatalf("one slot with page count 0: %v, want a fallback to the other", err)
	}
	defer db.Close()
	if got := len(scanRows(t, db)); got != 5 || db.Stats().TxID != 0 {
		t.Errorf("fallback opened txid %d with %d rows, want txid 0 with 5", db.Stats().TxID, got)
	}
}

// TestOpenAcceptsUnwrittenIDsBelowLoggedPage: a commit that overwrites an
// overflow value it wrote itself logs its leaf above the chain's ids, which
// it allocated but never wrote. Open must accept that log after a crash,
// though the leaf lies past the page file's end by more than the log holds
// pages.
func TestOpenAcceptsUnwrittenIDsBelowLoggedPage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.db")
	db, err := Open(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Update(func(tx *Tx) error {
		if err := tx.Put([]byte("k"), bytes.Repeat([]byte("v"), 3*payloadSize)); err != nil {
			return err
		}
		return tx.Put([]byte("k"), []byte("small"))
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Abandon(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(path, Options{NoSync: true})
	if err != nil {
		t.Fatalf("reopen after the crash: %v", err)
	}
	defer db.Close()
	if v, ok := mustGet(t, db, "k"); !ok || v != "small" {
		t.Fatalf("k = %q, %v; want small", v, ok)
	}
}

// TestOpenBoundsDeclaredPageCount: a page count past the page file's end
// costs Open nothing. Ids beyond the file were never written, so Open
// lowers the count to the file's end instead of listing each one as free.
// A three-page file declaring 2^26 pages used to take seconds to open and
// build a 67,108,861-entry freelist.
func TestOpenBoundsDeclaredPageCount(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.db")
	fiveRowStore(t, path)
	writeMetas(t, path, [3]uint64{0, 0, 1 << 26}, [3]uint64{1, firstDataPage, 1 << 26})

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	db, err := Open(path, Options{NoSync: true})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Errorf("opening a three-page file allocated %d bytes", alloc)
	}
	if st := db.Stats(); st.PageCount != 3 || st.FreePages != 0 {
		t.Errorf("opened with %d pages, %d free; want 3 and 0", st.PageCount, st.FreePages)
	}
	mustPut(t, db, "row-5", "value-5")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if rows := scanRows(t, db); len(rows) != 6 {
		t.Errorf("reopened store holds %d rows, want 6: %v", len(rows), rows)
	}
}

// resealWAL re-stamps each record's CRC in log, walking records by their
// declared length as replayWAL does.
func resealWAL(log []byte) {
	for off := 0; off+walHeaderSize+4 <= len(log); {
		n := int(binary.LittleEndian.Uint32(log[off+4:]))
		if n < walHeaderSize+4 || n > len(log)-off {
			return
		}
		binary.LittleEndian.PutUint32(log[off+n-4:], crc32.ChecksumIEEE(log[off:off+n-4]))
		off += n
	}
}

// FuzzOpen opens a five-row store whose meta slots' fields and log the
// fuzzer supplies. The harness seals both metas and re-seals each log
// record's CRC, as FuzzDecodeNode and FuzzReadOverflow re-seal pages, so
// every input reaches the checks behind the checksums. Open must not
// panic, must refuse with ErrCorrupt, and must allocate no more than a
// multiple of the files it reads. On a store that opens, every row a scan
// returns must survive one more commit, a Close and another Open.
func FuzzOpen(f *testing.F) {
	dir := f.TempDir()
	baseBytes := fiveRowStore(f, filepath.Join(dir, "base.db"))
	const root = uint64(firstDataPage)

	// An abandoned store's log: three commits over the five rows, one of
	// them spilling a value to an overflow page, never checkpointed.
	abandoned := filepath.Join(dir, "abandoned.db")
	if err := os.WriteFile(abandoned, baseBytes, 0o644); err != nil {
		f.Fatal(err)
	}
	db, err := Open(abandoned, Options{NoSync: true})
	if err != nil {
		f.Fatal(err)
	}
	for _, kv := range [][2]string{{"row-5", "value-5"}, {"big", string(bytes.Repeat([]byte("b"), 3000))}, {"row-0", "rewritten"}} {
		if err := db.Update(func(tx *Tx) error { return tx.Put([]byte(kv[0]), []byte(kv[1])) }); err != nil {
			f.Fatal(err)
		}
	}
	if err := db.Abandon(); err != nil {
		f.Fatal(err)
	}
	log, err := os.ReadFile(abandoned + "-wal")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint64(0), uint64(0), uint64(firstDataPage), uint64(1), root, uint64(3), log)
	f.Add(uint64(0), uint64(0), uint64(0), uint64(1), root, uint64(0), []byte(nil))
	f.Add(uint64(0), uint64(0), uint64(1<<26), uint64(1), root, uint64(1<<26), []byte(nil))

	f.Fuzz(func(t *testing.T, txid0, root0, count0, txid1, root1, count1 uint64, log []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.db")
		if err := os.WriteFile(path, baseBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		writeMetas(t, path, [3]uint64{txid0, root0, count0}, [3]uint64{txid1, root1, count1})
		log = append([]byte(nil), log...)
		resealWAL(log)
		if err := os.WriteFile(path+"-wal", log, 0o644); err != nil {
			t.Fatal(err)
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		db, err := Open(path, Options{NoSync: true})
		runtime.ReadMemStats(&after)
		if in := uint64(len(baseBytes) + len(log)); after.TotalAlloc-before.TotalAlloc > 16*in+1<<20 {
			t.Fatalf("Open of %d bytes of files allocated %d bytes", in, after.TotalAlloc-before.TotalAlloc)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open refusal is not ErrCorrupt: %v", err)
			}
			return
		}
		rows := scanRows(t, db)
		err = db.Update(func(tx *Tx) error { return tx.Put([]byte("fuzz-commit"), []byte("v")) })
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("commit refusal is not ErrCorrupt: %v", err)
		}
		if err := db.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		db, err = Open(path, Options{NoSync: true})
		if err != nil {
			t.Fatalf("a store that opened does not reopen after one commit: %v", err)
		}
		defer db.Close()
		kept := make(map[string]bool)
		for _, r := range scanRows(t, db) {
			kept[r] = true
		}
		for _, r := range rows {
			if !kept[r] {
				t.Fatalf("row %s did not survive a commit, Close and Open", r)
			}
		}
	})
}

// writeTree writes a store whose meta slot 0 commits root 2 over the given
// pages, sealed, at page ids 2, 3, ... Slot 1 describes the empty store.
func writeTree(t *testing.T, path string, pages ...*node) {
	t.Helper()
	b := make([]byte, (firstDataPage+len(pages))*pageSize)
	copy(b, encodeMeta(1, firstDataPage, uint64(firstDataPage+len(pages))))
	copy(b[pageSize:], encodeMeta(0, 0, firstDataPage))
	for i, n := range pages {
		copy(b[(firstDataPage+i)*pageSize:], n.encode())
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// chain returns depth one-child branch pages over a one-row leaf, the
// branch at index i pointing at page 3+i: the leaf sits at depth depth.
func chain(depth int) []*node {
	var pages []*node
	for i := 0; i < depth; i++ {
		pages = append(pages, &node{keys: [][]byte{nil}, children: []uint64{uint64(firstDataPage + 1 + i)}})
	}
	return append(pages, &node{leaf: true, keys: [][]byte{[]byte("k")}, vals: [][]byte{[]byte("v")},
		vlen: []uint32{1}, ovf: []uint64{0}})
}

// TestOpenRefusesTreesReadsRefuse: Open's reachability walk refuses what
// every Get, Put and Scan would, a branch page with no children and a
// tree deeper than maxTreeDepth, with ErrCorrupt, and opens the deepest
// tree they accept.
func TestOpenRefusesTreesReadsRefuse(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name  string
		pages []*node
	}{
		{"empty branch root", []*node{{}}},
		{"empty branch below the root", []*node{{keys: [][]byte{nil}, children: []uint64{3}}, {}}},
		{"leaf one level too deep", chain(maxTreeDepth + 1)},
	} {
		path := filepath.Join(dir, tc.name+".db")
		writeTree(t, path, tc.pages...)
		db, err := Open(path, Options{NoSync: true})
		if err == nil {
			db.Close()
			t.Errorf("%s: Open succeeded", tc.name)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Open error is not ErrCorrupt: %v", tc.name, err)
		}
	}

	// The deepest tree the walks accept opens, reads and takes a write.
	path := filepath.Join(dir, "deepest.db")
	writeTree(t, path, chain(maxTreeDepth)...)
	db, err := Open(path, Options{NoSync: true})
	if err != nil {
		t.Fatalf("Open of a tree %d levels deep: %v", maxTreeDepth, err)
	}
	defer db.Close()
	if err := db.View(func(s *Snapshot) error {
		v, ok, err := s.Get([]byte("k"))
		if err == nil && (!ok || string(v) != "v") {
			err = fmt.Errorf("Get = %q, %v, want \"v\", true", v, ok)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Update(func(tx *Tx) error { return tx.Put([]byte("k2"), []byte("v2")) }); err != nil {
		t.Fatal(err)
	}
}
