package store

import "sync/atomic"

// Snapshot is a frozen read-only view of the tree as of one commit. It
// pins every page that commit could reach: the freelist will not recycle
// pages freed by later commits until this snapshot is Released, so reads
// stay byte-stable no matter how many commits land concurrently.
//
// Snapshots are safe for concurrent use by multiple goroutines.
type Snapshot struct {
	db       *DB
	root     uint64
	txid     uint64
	released atomic.Bool
}

func (s *Snapshot) readNode(pgid uint64) (*node, error) {
	p, err := s.db.readPage(pgid)
	if err != nil {
		return nil, err
	}
	return decodeNode(p, pgid)
}

func (s *Snapshot) readRaw(pgid uint64) ([]byte, error) {
	return s.db.readPage(pgid)
}

// Get reads key from the pinned tree. The returned slice must not be
// modified.
func (s *Snapshot) Get(key []byte) ([]byte, bool, error) {
	if s.released.Load() {
		return nil, false, ErrReleased
	}
	if err := validateKey(key); err != nil {
		return nil, false, err
	}
	return lookupKey(s, s.root, key)
}

// Scan iterates keys in [start, end) in order (nil start/end = unbounded).
// fn returning false stops early. Yielded slices must not be modified.
func (s *Snapshot) Scan(start, end []byte, fn func(key, val []byte) (bool, error)) error {
	if s.released.Load() {
		return ErrReleased
	}
	return scanTree(s, s.root, start, end, fn)
}

// Release unpins the snapshot, allowing the freelist to recycle pages only
// this snapshot still held. Idempotent.
func (s *Snapshot) Release() {
	if s.released.Swap(true) {
		return
	}
	db := s.db
	db.mu.Lock()
	delete(db.snaps, s)
	if !db.closed {
		db.fl.promote(db.minActiveLocked())
	}
	db.mu.Unlock()
}
