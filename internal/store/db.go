package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sort"
	"sync"
)

// Meta slot layout (pages 0 and 1, little-endian):
//
//	u32 magic "SMDB"
//	u32 version
//	u32 pageSize
//	u64 txid
//	u64 root
//	u64 pageCount
//	u32 crc  (CRC-32/IEEE over the preceding 36 bytes)
//
// The two slots alternate by txid parity, so a torn meta write clobbers at
// most one slot and Open falls back to the other (the previous checkpoint).
const (
	metaMagic   = 0x42444D53 // "SMDB"
	metaVersion = 1
	metaLen     = 40
)

// maxLogGap is how many never-written page ids Open accepts below a log
// page past the page file's end. A commit that overwrites an overflow value
// it wrote itself leaves that chain's ids allocated but unwritten until a
// later commit reuses them, so a crash can leave such a gap below a logged
// page. 2^14 ids admit the gap of a 64 MiB value at a cost of 128 KiB of
// freelist.
const maxLogGap = 1 << 14

func encodeMeta(txid, root, pageCount uint64) []byte {
	p := make([]byte, pageSize)
	binary.LittleEndian.PutUint32(p[0:], metaMagic)
	binary.LittleEndian.PutUint32(p[4:], metaVersion)
	binary.LittleEndian.PutUint32(p[8:], pageSize)
	binary.LittleEndian.PutUint64(p[12:], txid)
	binary.LittleEndian.PutUint64(p[20:], root)
	binary.LittleEndian.PutUint64(p[28:], pageCount)
	binary.LittleEndian.PutUint32(p[36:], crc32.ChecksumIEEE(p[:36]))
	return p
}

// decodeMeta reads a meta slot. A slot whose page count leaves no room for
// the meta slots themselves is as unusable as one failing its CRC.
func decodeMeta(p []byte) (txid, root, pageCount uint64, ok bool) {
	if len(p) < metaLen ||
		binary.LittleEndian.Uint32(p[0:]) != metaMagic ||
		binary.LittleEndian.Uint32(p[4:]) != metaVersion ||
		binary.LittleEndian.Uint32(p[8:]) != pageSize ||
		binary.LittleEndian.Uint32(p[36:]) != crc32.ChecksumIEEE(p[:36]) ||
		binary.LittleEndian.Uint64(p[28:]) < firstDataPage {
		return 0, 0, 0, false
	}
	return binary.LittleEndian.Uint64(p[12:]),
		binary.LittleEndian.Uint64(p[20:]),
		binary.LittleEndian.Uint64(p[28:]),
		true
}

// DB is an open database. Safe for concurrent use: any number of Snapshot
// readers, one write transaction at a time (Begin blocks until the writer
// slot frees).
type DB struct {
	opts Options
	file *os.File
	wal  *wal

	// writer is the single-writer slot, held from Begin to Commit/Rollback.
	writer sync.Mutex

	mu        sync.Mutex // guards all fields below
	closed    bool
	failed    bool
	root      uint64
	txid      uint64
	pageCount uint64
	// cache holds immutable sealed page images. dirty marks pages that
	// live only in the WAL (not yet checkpointed); they are pinned — only
	// clean pages are evicted, which is what makes reader preads on cache
	// misses safe against concurrent checkpoint writes. An overflow page
	// (a slice of a value over maxInlineValue) is resident only while it
	// is dirty: a checkpoint drops it, and a read of a clean one is served
	// from the page file without caching it, so the bound holds B+tree
	// nodes rather than write-once row values.
	cache map[uint64][]byte
	dirty map[uint64]struct{}
	fl    *freelist
	snaps map[*Snapshot]struct{}

	commits     uint64
	checkpoints uint64
}

// Open opens or creates the database at path (the WAL lives at path+"-wal"),
// running crash recovery: replay the WAL's committed suffix, truncate the
// torn tail, checkpoint, and rebuild the freelist by reachability.
func Open(path string, opts Options) (*DB, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	db := &DB{
		opts:  opts,
		file:  f,
		cache: make(map[uint64][]byte),
		dirty: make(map[uint64]struct{}),
		fl:    newFreelist(),
		snaps: make(map[*Snapshot]struct{}),
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	switch {
	case fi.Size() == 0:
		// Fresh database: both meta slots describe the empty tree.
		db.pageCount = firstDataPage
		for slot := int64(0); slot < 2; slot++ {
			if _, err := f.WriteAt(encodeMeta(0, 0, firstDataPage), slot*pageSize); err != nil {
				f.Close()
				return nil, err
			}
		}
		if !opts.NoSync {
			if err := f.Sync(); err != nil {
				f.Close()
				return nil, err
			}
		}
	case fi.Size() < 2*pageSize:
		f.Close()
		return nil, fmt.Errorf("%w: file smaller than the meta slots", ErrCorrupt)
	default:
		buf := make([]byte, 2*pageSize)
		if _, err := f.ReadAt(buf, 0); err != nil {
			f.Close()
			return nil, err
		}
		found := false
		for slot := 0; slot < 2; slot++ {
			txid, root, pc, ok := decodeMeta(buf[slot*pageSize:])
			if ok && (!found || txid > db.txid) {
				db.txid, db.root, db.pageCount = txid, root, pc
				found = true
			}
		}
		if !found {
			f.Close()
			return nil, fmt.Errorf("%w: neither meta slot is valid", ErrCorrupt)
		}
	}

	db.wal, err = openWAL(path+"-wal", opts.CrashWALBytes, opts.NoSync)
	if err != nil {
		f.Close()
		return nil, err
	}

	// Recovery: apply every intact WAL record newer than the checkpointed
	// meta, then cut the torn tail. Records at or below meta.txid are from
	// a checkpoint that crashed after writing meta but before truncating
	// the log — already durable in the page file, so skipped. A record's
	// pages go where the checkpoint below writes them, so each must be a
	// data page below the record's page count and no further past the page
	// file's end than the log holds page images, plus maxLogGap: the file,
	// and with it the freelist rebuilt from it, then grows only by what the
	// log carries.
	limit := uint64(max(fi.Size()/pageSize, firstDataPage)+db.wal.size.Load()/walEntrySize) + maxLogGap
	replayed := 0
	truncAt, err := replayWAL(db.wal.f, func(c walCommit) error {
		if c.txid <= db.txid {
			return nil
		}
		if c.pageCount < firstDataPage {
			return fmt.Errorf("%w: log record %d has page count %d", ErrCorrupt, c.txid, c.pageCount)
		}
		for pgid, img := range c.pages {
			if pgid < firstDataPage || pgid >= min(c.pageCount, limit) {
				return fmt.Errorf("%w: log record %d writes page %d outside data pages %d..%d",
					ErrCorrupt, c.txid, pgid, firstDataPage, min(c.pageCount, limit)-1)
			}
			db.cache[pgid] = img
			db.dirty[pgid] = struct{}{}
		}
		db.txid, db.root, db.pageCount = c.txid, c.root, c.pageCount
		replayed++
		return nil
	})
	if err != nil {
		db.wal.close()
		f.Close()
		return nil, err
	}
	if truncAt < db.wal.size.Load() {
		if err := db.wal.truncate(truncAt); err != nil {
			db.wal.close()
			f.Close()
			return nil, err
		}
	}
	if replayed > 0 || db.wal.size.Load() > 0 {
		if err := db.checkpoint(); err != nil {
			db.wal.close()
			f.Close()
			return nil, err
		}
	}

	if err := db.rebuildFreelist(); err != nil {
		db.wal.close()
		f.Close()
		return nil, err
	}
	return db, nil
}

// rebuildFreelist computes the free set as the complement of a reachability
// walk from the committed root (including overflow chains). Recovery has
// checkpointed any log by now, so every reachable page is in the page file
// and ids past its end were never written: the page count drops to the
// file's end instead of listing each of them, which bounds the walk and the
// freelist by the file's size rather than a declared count. A reachable
// page outside the data pages below that count is corrupt.
func (db *DB) rebuildFreelist() error {
	fi, err := db.file.Stat()
	if err != nil {
		return err
	}
	db.pageCount = min(db.pageCount, uint64(fi.Size()/pageSize))
	reachable := make(map[uint64]bool)
	// read marks pgid reachable, then reads it.
	read := func(pgid uint64) ([]byte, error) {
		if pgid < firstDataPage || pgid >= db.pageCount {
			return nil, fmt.Errorf("%w: reachable page %d is outside data pages %d..%d", ErrCorrupt, pgid, firstDataPage, db.pageCount-1)
		}
		if reachable[pgid] {
			return nil, fmt.Errorf("%w: page %d reachable twice", ErrCorrupt, pgid)
		}
		reachable[pgid] = true
		return db.readPage(pgid)
	}
	// walk refuses what lookupKey and scanTree would: a page deeper than
	// maxTreeDepth, or a branch page with no children.
	var walk func(pgid uint64, depth int) error
	walk = func(pgid uint64, depth int) error {
		if depth > maxTreeDepth {
			return errTooDeep
		}
		p, err := read(pgid)
		if err != nil {
			return err
		}
		n, err := decodeNode(p, pgid)
		if err != nil {
			return err
		}
		if n.leaf {
			for i := range n.keys {
				if n.ovf[i] == 0 {
					continue
				}
				if _, err := overflowChain(n.ovf[i], int(n.vlen[i]), read); err != nil {
					return err
				}
			}
			return nil
		}
		if len(n.children) == 0 {
			return fmt.Errorf("%w: empty branch page %d", ErrCorrupt, pgid)
		}
		for _, child := range n.children {
			if err := walk(child, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if db.root != 0 {
		if err := walk(db.root, 0); err != nil {
			return err
		}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for pgid := uint64(firstDataPage); pgid < db.pageCount; pgid++ {
		if !reachable[pgid] {
			db.fl.free = append(db.fl.free, pgid)
		}
	}
	return nil
}

// readPage returns the immutable sealed image of a committed page, from
// cache or the page file (checksum-verified). A clean overflow page read
// from the file is not cached. Safe concurrently.
func (db *DB) readPage(pgid uint64) ([]byte, error) {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil, ErrClosed
	}
	if p, ok := db.cache[pgid]; ok {
		db.mu.Unlock()
		return p, nil
	}
	db.mu.Unlock()
	buf := make([]byte, pageSize)
	if _, err := db.file.ReadAt(buf, int64(pgid)*pageSize); err != nil {
		return nil, fmt.Errorf("store: read page %d: %w", pgid, err)
	}
	if err := checkPage(buf, pgid); err != nil {
		return nil, err
	}
	if pageFlags(buf) == flagOverflow {
		return buf, nil
	}
	db.mu.Lock()
	db.cache[pgid] = buf
	db.evictLocked()
	db.mu.Unlock()
	return buf, nil
}

// evictLocked drops clean pages while the cache exceeds its bound. Dirty
// pages (WAL-only) are pinned until checkpointed. Called with mu held.
func (db *DB) evictLocked() {
	limit := db.opts.cachePages()
	if len(db.cache) <= limit {
		return
	}
	for pgid := range db.cache {
		if _, isDirty := db.dirty[pgid]; isDirty {
			continue
		}
		delete(db.cache, pgid)
		if len(db.cache) <= limit {
			return
		}
	}
}

// minActiveLocked is the oldest txid any live snapshot observes (the
// current txid when none are open). Called with mu held.
func (db *DB) minActiveLocked() uint64 {
	min := db.txid
	for s := range db.snaps {
		if s.txid < min {
			min = s.txid
		}
	}
	return min
}

// failLocked marks the database sticky-failed. Called with mu held.
func (db *DB) failLocked() { db.failed = true }

// checkpoint migrates WAL-resident pages into the page file, drops the
// overflow pages among them from the cache, and resets the log. Sequence:
// sync WAL → write dirty pages → fsync page file → write meta → fsync →
// truncate WAL. A crash at any point is safe: until the new
// meta is durable, recovery replays the old meta plus the (fully synced)
// WAL, which contains exactly the pages being written here.
//
// Callers must hold the writer slot (or otherwise exclude writers); mu must
// NOT be held.
func (db *DB) checkpoint() error {
	if err := db.wal.syncTo(db.wal.size.Load()); err != nil {
		return err
	}
	db.mu.Lock()
	pgids := make([]uint64, 0, len(db.dirty))
	for pgid := range db.dirty {
		pgids = append(pgids, pgid)
	}
	sort.Slice(pgids, func(i, j int) bool { return pgids[i] < pgids[j] })
	pages := make([][]byte, len(pgids))
	for i, pgid := range pgids {
		pages[i] = db.cache[pgid]
	}
	txid, root, pageCount := db.txid, db.root, db.pageCount
	db.mu.Unlock()

	for i, pgid := range pgids {
		if _, err := db.file.WriteAt(pages[i], int64(pgid)*pageSize); err != nil {
			return fmt.Errorf("store: checkpoint write page %d: %w", pgid, err)
		}
	}
	if !db.opts.NoSync {
		if err := db.file.Sync(); err != nil {
			return fmt.Errorf("store: checkpoint sync: %w", err)
		}
	}
	slot := int64(txid % 2)
	if _, err := db.file.WriteAt(encodeMeta(txid, root, pageCount), slot*pageSize); err != nil {
		return fmt.Errorf("store: checkpoint meta: %w", err)
	}
	if !db.opts.NoSync {
		if err := db.file.Sync(); err != nil {
			return fmt.Errorf("store: checkpoint meta sync: %w", err)
		}
	}
	if err := db.wal.truncate(0); err != nil {
		return fmt.Errorf("store: checkpoint wal reset: %w", err)
	}
	db.mu.Lock()
	for i, pgid := range pgids {
		delete(db.dirty, pgid)
		if pageFlags(pages[i]) == flagOverflow {
			delete(db.cache, pgid)
		}
	}
	db.checkpoints++
	db.evictLocked()
	db.mu.Unlock()
	return nil
}

// Begin starts the write transaction, blocking while another is active.
func (db *DB) Begin() (*Tx, error) {
	db.writer.Lock()
	db.mu.Lock()
	if db.closed || db.failed {
		err := ErrClosed
		if db.failed && !db.closed {
			err = ErrFailed
		}
		db.mu.Unlock()
		db.writer.Unlock()
		return nil, err
	}
	tx := &Tx{
		db:        db,
		root:      db.root,
		pageCount: db.pageCount,
		nodes:     make(map[uint64]*node),
		raw:       make(map[uint64][]byte),
	}
	db.mu.Unlock()
	return tx, nil
}

// Update runs fn inside a write transaction, committing on nil and rolling
// back on error.
func (db *DB) Update(fn func(*Tx) error) error {
	tx, err := db.Begin()
	if err != nil {
		return err
	}
	if err := fn(tx); err != nil {
		tx.Rollback()
		return err
	}
	return tx.Commit()
}

// Snapshot pins the current committed tree for reading. Release it.
func (db *DB) Snapshot() (*Snapshot, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, ErrClosed
	}
	s := &Snapshot{db: db, root: db.root, txid: db.txid}
	db.snaps[s] = struct{}{}
	return s, nil
}

// View runs fn over a snapshot, releasing it afterwards.
func (db *DB) View(fn func(*Snapshot) error) error {
	s, err := db.Snapshot()
	if err != nil {
		return err
	}
	defer s.Release()
	return fn(s)
}

// Stats reports a point-in-time account of the engine.
func (db *DB) Stats() Stats {
	db.mu.Lock()
	defer db.mu.Unlock()
	return Stats{
		TxID:            db.txid,
		Commits:         db.commits,
		Checkpoints:     db.checkpoints,
		PageCount:       db.pageCount,
		FreePages:       len(db.fl.free),
		PendingPages:    db.fl.pendingCount(),
		CachedPages:     len(db.cache),
		WALBytes:        db.wal.size.Load(),
		ActiveSnapshots: len(db.snaps),
	}
}

// Close checkpoints (unless failed) and releases the files. Concurrent
// operations finish or fail with ErrClosed.
func (db *DB) Close() error {
	db.writer.Lock()
	defer db.writer.Unlock()
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil
	}
	failed := db.failed
	dirtyCount := len(db.dirty)
	db.mu.Unlock()
	var ckErr error
	if !failed && dirtyCount > 0 {
		ckErr = db.checkpoint()
	}
	db.mu.Lock()
	db.closed = true
	db.mu.Unlock()
	if err := db.wal.close(); ckErr == nil {
		ckErr = err
	}
	if err := db.file.Close(); ckErr == nil {
		ckErr = err
	}
	return ckErr
}

// Abandon drops the file handles without checkpointing or syncing —
// simulating a process kill. Only the WAL and page file contents already
// durable survive, exactly as after a real crash. The crash-recovery tests
// use it; production code calls Close.
func (db *DB) Abandon() error {
	db.mu.Lock()
	db.closed = true
	db.failed = true
	db.mu.Unlock()
	err := db.wal.close()
	if err2 := db.file.Close(); err == nil {
		err = err2
	}
	return err
}
