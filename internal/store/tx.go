package store

import (
	"fmt"
	"sort"
)

// Tx is the single write transaction. It builds a new tree copy-on-write:
// every node on a mutated path is re-created under a fresh page id, the old
// ids are queued for the freelist, and nothing shared is touched until
// Commit installs the new root atomically. A Tx also reads: Get and Scan
// observe its own uncommitted writes.
//
// A Tx is not safe for concurrent use. It must end in exactly one Commit
// or Rollback; holding it open blocks every other writer.
type Tx struct {
	db        *DB
	done      bool
	root      uint64
	pageCount uint64

	// nodes and raw hold the pages this transaction created: decoded
	// B+tree nodes and sealed overflow pages respectively.
	nodes map[uint64]*node
	raw   map[uint64][]byte
	// freed lists committed pages this tx superseded (they join the
	// freelist's pending set at commit). recycled lists tx-local pages
	// freed before ever committing — immediately reusable. allocFromFree
	// records freelist pops, so Rollback can return them.
	freed         []uint64
	recycled      []uint64
	allocFromFree []uint64
}

type splitResult struct {
	pgid uint64
	key  []byte
}

// alloc returns a page id for a new page: tx-recycled first, then the
// shared freelist, then file growth.
func (tx *Tx) alloc() uint64 {
	if n := len(tx.recycled); n > 0 {
		id := tx.recycled[n-1]
		tx.recycled = tx.recycled[:n-1]
		return id
	}
	tx.db.mu.Lock()
	id := tx.db.fl.allocate()
	tx.db.mu.Unlock()
	if id != 0 {
		tx.allocFromFree = append(tx.allocFromFree, id)
		return id
	}
	id = tx.pageCount
	tx.pageCount++
	return id
}

// freeChain retires the whole overflow chain of leaf cell i. Pages this
// tx wrote (never committed) are recycled immediately; committed pages wait
// out active snapshots.
func (tx *Tx) freeChain(n *node, i int) error {
	ids, err := overflowChain(n.ovf[i], int(n.vlen[i]), tx.readRaw)
	if err != nil {
		return err
	}
	for _, id := range ids {
		if _, ok := tx.raw[id]; ok {
			delete(tx.raw, id)
			tx.recycled = append(tx.recycled, id)
		} else {
			tx.freed = append(tx.freed, id)
		}
	}
	return nil
}

// readNode implements treeReader over the tx's view: its own nodes shadow
// committed pages.
func (tx *Tx) readNode(pgid uint64) (*node, error) {
	if n, ok := tx.nodes[pgid]; ok {
		return n, nil
	}
	p, err := tx.db.readPage(pgid)
	if err != nil {
		return nil, err
	}
	return decodeNode(p, pgid)
}

func (tx *Tx) readRaw(pgid uint64) ([]byte, error) {
	if p, ok := tx.raw[pgid]; ok {
		return p, nil
	}
	return tx.db.readPage(pgid)
}

// touch makes pgid writable: a tx-local node is returned as-is; a committed
// node is copied to a fresh id (copy-on-write) and the old id freed.
func (tx *Tx) touch(pgid uint64) (uint64, *node, error) {
	if n, ok := tx.nodes[pgid]; ok {
		return pgid, n, nil
	}
	p, err := tx.db.readPage(pgid)
	if err != nil {
		return 0, nil, err
	}
	n, err := decodeNode(p, pgid)
	if err != nil {
		return 0, nil, err
	}
	id := tx.alloc()
	tx.nodes[id] = n
	tx.freed = append(tx.freed, pgid)
	return id, n, nil
}

// Get reads key through the transaction's own uncommitted view. The
// returned slice must not be modified.
func (tx *Tx) Get(key []byte) ([]byte, bool, error) {
	if tx.done {
		return nil, false, ErrTxDone
	}
	if err := validateKey(key); err != nil {
		return nil, false, err
	}
	return lookupKey(tx, tx.root, key)
}

// Put inserts or replaces key. Values above the inline bound spill to an
// overflow chain. key and val are copied; the caller keeps ownership.
func (tx *Tx) Put(key, val []byte) error {
	if tx.done {
		return ErrTxDone
	}
	if err := validateKey(key); err != nil {
		return err
	}
	k := append([]byte(nil), key...)
	vlen := uint32(len(val))
	var inline []byte
	var ovf uint64
	if len(val) > maxInlineValue {
		v := append([]byte(nil), val...)
		ovf = encodeOverflow(v, tx.alloc, func(pgid uint64, page []byte) { tx.raw[pgid] = page })
	} else {
		inline = append([]byte(nil), val...)
	}
	if tx.root == 0 {
		n := &node{leaf: true}
		n.insertLeafCell(0, k, inline, ovf, vlen)
		id := tx.alloc()
		tx.nodes[id] = n
		tx.root = id
		return nil
	}
	newRoot, firstKey, sp, err := tx.insert(tx.root, k, inline, ovf, vlen)
	if err != nil {
		return err
	}
	tx.root = newRoot
	if sp != nil {
		// Root split: grow the tree by one level.
		r := &node{
			keys:     [][]byte{firstKey, sp.key},
			children: []uint64{newRoot, sp.pgid},
		}
		id := tx.alloc()
		tx.nodes[id] = r
		tx.root = id
	}
	return nil
}

// insert descends to the leaf, copy-on-writing the path. It returns the
// subtree's new page id, its (possibly changed) smallest key, and a split
// descriptor when the node had to shed a right sibling.
func (tx *Tx) insert(pgid uint64, key, val []byte, ovf uint64, vlen uint32) (uint64, []byte, *splitResult, error) {
	id, n, err := tx.touch(pgid)
	if err != nil {
		return 0, nil, nil, err
	}
	added := -1 // the cell this insert adds to n, if any
	if n.leaf {
		i, found := n.search(key)
		if found {
			if n.ovf[i] != 0 {
				if err := tx.freeChain(n, i); err != nil {
					return 0, nil, nil, err
				}
			}
			n.keys[i], n.vals[i], n.ovf[i], n.vlen[i] = key, val, ovf, vlen
		} else {
			n.insertLeafCell(i, key, val, ovf, vlen)
			added = i
		}
	} else {
		if len(n.children) == 0 {
			return 0, nil, nil, fmt.Errorf("%w: empty branch page %d", ErrCorrupt, pgid)
		}
		ci := n.childIndex(key)
		childID, childFirst, sp, err := tx.insert(n.children[ci], key, val, ovf, vlen)
		if err != nil {
			return 0, nil, nil, err
		}
		n.children[ci] = childID
		n.keys[ci] = childFirst
		if sp != nil {
			n.insertBranchCell(ci+1, sp.key, sp.pgid)
			added = ci + 1
		}
	}
	if n.size() > pageSize {
		right := n.split(added)
		rid := tx.alloc()
		tx.nodes[rid] = right
		return id, n.keys[0], &splitResult{pgid: rid, key: right.keys[0]}, nil
	}
	return id, n.keys[0], nil, nil
}

// Commit logs the transaction (one WAL record with every new page image),
// installs the new root for readers, and returns once the record is
// durable. Durability piggybacks on concurrent committers' fsyncs (group
// commit); visibility precedes durability by design — a commit another
// reader observed can still be lost if the process dies before Commit
// returns, but a Commit that returned nil never is.
func (tx *Tx) Commit() error {
	if tx.done {
		return ErrTxDone
	}
	tx.done = true
	db := tx.db

	if len(tx.nodes) == 0 && len(tx.raw) == 0 && len(tx.freed) == 0 {
		// Read-only or fully self-cancelling tx: nothing to log.
		if len(tx.allocFromFree) > 0 {
			db.mu.Lock()
			db.fl.free = append(db.fl.free, tx.allocFromFree...)
			sort.Slice(db.fl.free, func(i, j int) bool { return db.fl.free[i] < db.fl.free[j] })
			db.mu.Unlock()
		}
		db.writer.Unlock()
		return nil
	}

	pages := make(map[uint64][]byte, len(tx.nodes)+len(tx.raw))
	pgids := make([]uint64, 0, len(pages))
	for id, n := range tx.nodes {
		pages[id] = n.encode()
		pgids = append(pgids, id)
	}
	for id, p := range tx.raw {
		pages[id] = p
		pgids = append(pgids, id)
	}
	sort.Slice(pgids, func(i, j int) bool { return pgids[i] < pgids[j] })

	db.mu.Lock()
	txid := db.txid + 1
	db.mu.Unlock()
	rec := encodeRecord(txid, tx.root, tx.pageCount, pgids, pages)
	end, err := db.wal.append(rec)
	if err != nil {
		db.mu.Lock()
		db.failLocked()
		db.mu.Unlock()
		db.writer.Unlock()
		return err
	}

	db.mu.Lock()
	for id, p := range pages {
		db.cache[id] = p
		db.dirty[id] = struct{}{}
	}
	db.root, db.txid, db.pageCount = tx.root, txid, tx.pageCount
	db.fl.release(txid, tx.freed)
	if len(tx.recycled) > 0 {
		// Allocated and discarded within this tx: no snapshot ever saw
		// them, straight back to the free set.
		db.fl.free = append(db.fl.free, tx.recycled...)
		sort.Slice(db.fl.free, func(i, j int) bool { return db.fl.free[i] < db.fl.free[j] })
	}
	db.fl.promote(db.minActiveLocked())
	db.commits++
	db.evictLocked()
	needCkpt := db.wal.size.Load() >= db.opts.checkpointBytes()
	db.mu.Unlock()

	if needCkpt {
		// Checkpoint under the writer slot so no commit races the page
		// file rewrite; it syncs the WAL first, which also makes this
		// commit durable.
		if err := db.checkpoint(); err != nil {
			db.mu.Lock()
			db.failLocked()
			db.mu.Unlock()
			db.writer.Unlock()
			return err
		}
		db.writer.Unlock()
		return nil
	}
	// Release the writer before fsync so the next writer overlaps its work
	// with our disk flush — its own syncTo may then cover both (group
	// commit).
	db.writer.Unlock()
	if err := db.wal.syncTo(end); err != nil {
		db.mu.Lock()
		db.failLocked()
		db.mu.Unlock()
		return err
	}
	return nil
}

// Rollback abandons the transaction, returning any freelist pages it
// borrowed. Idempotent after Commit or a prior Rollback.
func (tx *Tx) Rollback() error {
	if tx.done {
		return nil
	}
	tx.done = true
	db := tx.db
	if len(tx.allocFromFree) > 0 {
		db.mu.Lock()
		db.fl.free = append(db.fl.free, tx.allocFromFree...)
		sort.Slice(db.fl.free, func(i, j int) bool { return db.fl.free[i] < db.fl.free[j] })
		db.mu.Unlock()
	}
	db.writer.Unlock()
	return nil
}
