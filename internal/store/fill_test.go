package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// nodeFill walks the committed tree and returns its node (leaf and branch)
// pages and their mean fill: encoded bytes over page bytes.
func nodeFill(t *testing.T, db *DB) (pages int, fill float64) {
	t.Helper()
	used := 0
	var walk func(pgid uint64)
	walk = func(pgid uint64) {
		p, err := db.readPage(pgid)
		if err != nil {
			t.Fatal(err)
		}
		n, err := decodeNode(p, pgid)
		if err != nil {
			t.Fatal(err)
		}
		pages++
		used += n.size()
		for _, c := range n.children {
			walk(c)
		}
	}
	db.mu.Lock()
	root := db.root
	db.mu.Unlock()
	if root != 0 {
		walk(root)
	}
	return pages, float64(used) / float64(pages*pageSize)
}

// historyRun is one run of a findings history, as the findings index
// (internal/store/findex) lays it out: a row under (repo, seq), the repo's
// sequence counter, and one index entry per CWE, for the run's maximum
// severity, per file with findings, and for its time.
type historyRun struct {
	repo  string
	time  int64
	row   int // row length: above maxInlineValue it spills to overflow pages
	level byte
	cwes  []uint32
	files []string
}

// appendRun writes run in one transaction with findex's key layout.
func appendRun(db *DB, run historyRun) error {
	be8 := func(v uint64) []byte { return binary.BigEndian.AppendUint64(nil, v) }
	tail := func(k []byte, seq uint64) []byte {
		return binary.BigEndian.AppendUint64(append(append(k, run.repo...), 0), seq)
	}
	return db.Update(func(tx *Tx) error {
		sk := append([]byte{'q'}, run.repo...)
		seq := uint64(1)
		if cur, ok, err := tx.Get(sk); err != nil {
			return err
		} else if ok {
			seq = binary.BigEndian.Uint64(cur) + 1
		}
		puts := [][2][]byte{
			{sk, be8(seq)},
			{tail([]byte{'r'}, seq), bytes.Repeat([]byte{'x'}, run.row)},
			{tail([]byte{'v', run.level}, seq), be8(uint64(len(run.files)))},
			{tail(binary.BigEndian.AppendUint64([]byte{'t'}, uint64(run.time)^1<<63), seq), nil},
		}
		for _, c := range run.cwes {
			puts = append(puts, [2][]byte{tail(binary.BigEndian.AppendUint32([]byte{'c'}, c), seq), be8(1)})
		}
		for _, f := range run.files {
			puts = append(puts, [2][]byte{tail(append(append([]byte{'f'}, f...), 0), seq), be8(10)})
		}
		for _, kv := range puts {
			if err := tx.Put(kv[0], kv[1]); err != nil {
				return err
			}
		}
		return nil
	})
}

// TestFleetHistoryFillsNodePages holds the split rule to a fleet shard's
// history: 2,000 seeded runs over 16 repos (small inline rows, up to five
// findings over four files), then 5,000 recorded runs alternating two
// repos, each a row over the inline bound whose ~160 findings are all of
// CWE 0 and spread over the repo's 16 files (16 of 48 names). Every
// recorded run appends at one point per index and repo, so node pages
// must end at least 85% full. Splitting every node at its size midpoint
// leaves them about half full.
func TestFleetHistoryFillsNodePages(t *testing.T) {
	db, _ := openTemp(t, Options{NoSync: true})
	defer db.Close()
	rng := rand.New(rand.NewSource(11))
	repos := []string{"fleet-a", "fleet-b"}
	for k := range 14 {
		repos = append(repos, fmt.Sprintf("hist-%02d", k))
	}
	seedFiles := []string{"src/a.mc", "src/b.mc", "src/c.mc", "lib/d.mc"}
	seedCWEs := []uint32{0, 78, 119, 121, 134, 369, 676}
	for i := range 2000 {
		run := historyRun{repo: repos[i%len(repos)], time: 1_700_000_000 + int64(i)*600}
		nf := rng.Intn(6)
		run.row = 180 + 120*nf
		run.level = byte(rng.Intn(5))
		for range nf {
			run.cwes = append(run.cwes, seedCWEs[rng.Intn(len(seedCWEs))])
			run.files = append(run.files, seedFiles[rng.Intn(len(seedFiles))])
		}
		if err := appendRun(db, run); err != nil {
			t.Fatal(err)
		}
	}
	// The two recorded repos each hold 16 of the same 48 file names.
	var treeFiles [2][]string
	for r := range treeFiles {
		for _, i := range rng.Perm(48)[:16] {
			treeFiles[r] = append(treeFiles[r], fmt.Sprintf("src/file%03d.mc", i))
		}
	}
	for i := range 5000 {
		run := historyRun{
			repo:  repos[i%2],
			time:  1_800_000_000 + int64(i)/4,
			row:   maxInlineValue + 1,
			cwes:  []uint32{0},
			files: treeFiles[i%2],
		}
		if err := appendRun(db, run); err != nil {
			t.Fatal(err)
		}
	}
	pages, fill := nodeFill(t, db)
	t.Logf("%d node pages, %.1f%% full", pages, 100*fill)
	if fill < 0.85 {
		t.Errorf("node pages are %.1f%% full, want at least 85%%", 100*fill)
	}
}

// TestWritesLeaveSealedImagesAlone: decoded nodes point into the cached
// page images, so nothing may write into one. Over a committed store, a
// transaction of puts that split leaves and branches, overwrite inline
// values in place and swap inline and overflow values is rolled back, and
// a second one like it commits. Every image cached before them keeps its
// bytes and its checksum, and so does every image cached after.
func TestWritesLeaveSealedImagesAlone(t *testing.T) {
	db, _ := openTemp(t, Options{NoSync: true})
	defer db.Close()
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%05d", i)) }
	big := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i%26)}, maxInlineValue+1+i) }
	if err := db.Update(func(tx *Tx) error {
		for i := 0; i < 3000; i += 2 {
			val := []byte(fmt.Sprintf("v%05d", i))
			if i%100 == 0 {
				val = big(i)
			}
			if err := tx.Put(key(i), val); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.View(func(s *Snapshot) error {
		return s.Scan(nil, nil, func(k, v []byte) (bool, error) { return true, nil })
	}); err != nil {
		t.Fatal(err)
	}
	db.mu.Lock()
	images := make(map[uint64][]byte, len(db.cache))
	want := make(map[uint64][]byte, len(db.cache))
	for id, p := range db.cache {
		images[id], want[id] = p, bytes.Clone(p)
	}
	db.mu.Unlock()

	writes := func(tx *Tx) error {
		for i := 0; i < 3000; i++ {
			var val []byte
			switch {
			case i%2 == 1: // a new key between two committed ones
				val = []byte("new")
			case i%100 == 0: // overflow to inline
				val = []byte("small")
			case i%50 == 0: // inline to overflow
				val = big(i)
			default: // same length, other bytes
				val = []byte(fmt.Sprintf("w%05d", i))
			}
			if err := tx.Put(key(i), val); err != nil {
				return err
			}
			if _, _, err := tx.Get(key(i / 2)); err != nil {
				return err
			}
		}
		for i := 3000; i < 4000; i++ { // appends past the last key
			if err := tx.Put(key(i), []byte("tail")); err != nil {
				return err
			}
		}
		return nil
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := writes(tx); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := db.Update(writes); err != nil {
		t.Fatal(err)
	}
	for id, p := range images {
		if !bytes.Equal(p, want[id]) {
			t.Errorf("page %d: its cached image changed", id)
		}
		if err := checkPage(p, id); err != nil {
			t.Error(err)
		}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for id, p := range db.cache {
		if err := checkPage(p, id); err != nil {
			t.Error(err)
		}
	}
}
