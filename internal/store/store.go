// Package store is the embedded storage engine behind the findings
// time-series: a copy-on-write B+tree over fixed-size pages, a write-ahead
// log with group commit and crash recovery, and MVCC snapshot reads, in one
// self-contained package with no dependencies beyond the standard library
// and the shared durable-write helper.
//
// The design in one paragraph: all durable state lives in two files, the
// page file (<path>, fixed 4 KiB pages: two alternating meta slots, then
// data pages) and the write-ahead log (<path>-wal). A write transaction
// never modifies a committed page — it copies every node on the root-to-leaf
// path to freshly allocated pages (copy-on-write), so the previous root
// keeps describing a complete, immutable tree. Commit appends one record
// carrying the full images of the transaction's new pages to the WAL and
// fsyncs it (concurrent committers share fsyncs — group commit); the page
// file is only rewritten at checkpoint, after which the WAL is truncated.
// Readers open snapshots: a snapshot pins the root (and, via the freelist's
// pending lists, every page) of the commit it observed, so scans see a
// frozen tree while the single writer keeps committing. Crash recovery
// replays the WAL's committed suffix (every record protected by a CRC over
// its entire contents) and truncates the torn tail; pages freed by later
// commits are rediscovered by a reachability walk, so the freelist needs no
// durable format of its own.
//
// Concurrency contract: any number of concurrent Snapshot readers, one
// writer at a time (Begin blocks). Snapshots must be Released; an
// unreleased snapshot pins its pages forever (the freelist cannot recycle
// them).
package store

import "errors"

// Fixed geometry. Changing pageSize invalidates every existing database.
const (
	pageSize = 4096

	// pageHeaderSize is the encoded page header: flags u16, count u16,
	// dataLen u32, next u64, crc u32.
	pageHeaderSize = 20

	// maxKey bounds key length so a branch page always fits several
	// separators; callers of Put get a typed error beyond it.
	maxKey = 512

	// maxInlineValue is the largest value stored inside a leaf cell;
	// larger values spill to an overflow page chain.
	maxInlineValue = 1024

	// maxPreallocValue caps the buffer readOverflow reserves up front, so
	// a damaged cell declaring a huge length costs at most this much
	// before its short chain is refused.
	maxPreallocValue = 1 << 20

	// firstDataPage: pages 0 and 1 are the alternating meta slots.
	firstDataPage = 2

	// maxTreeDepth bounds every root-to-leaf walk (lookup, scan, and
	// Open's reachability walk): the root sits at depth 0 and a page below
	// depth maxTreeDepth is corrupt.
	maxTreeDepth = 64
)

// Typed failures callers branch on with errors.Is.
var (
	// ErrCorrupt marks a page, meta slot, or WAL record whose checksum or
	// structure is invalid. Open returns it when neither meta slot is
	// usable; reads return it instead of ever serving a torn page.
	ErrCorrupt = errors.New("store: corrupt or torn data")
	// ErrKeyTooLarge rejects keys longer than the 512-byte bound.
	ErrKeyTooLarge = errors.New("store: key exceeds maximum length")
	// ErrEmptyKey rejects zero-length keys (reserved as a scan sentinel).
	ErrEmptyKey = errors.New("store: empty key")
	// ErrClosed is returned by every operation after Close.
	ErrClosed = errors.New("store: database is closed")
	// ErrFailed marks a database that hit an I/O (or injected) failure
	// mid-commit; the in-memory state can no longer be trusted to match
	// the log, so every later write is refused. Reopen to recover.
	ErrFailed = errors.New("store: database failed; reopen to recover")
	// ErrTxDone is returned when a committed or rolled-back Tx is reused.
	ErrTxDone = errors.New("store: transaction already finished")
	// ErrReleased is returned when a released Snapshot is read.
	ErrReleased = errors.New("store: snapshot already released")
	// ErrCrashInjected is the injected WAL failure the crash-recovery
	// tests (here and in findex) trigger via Options.CrashWALBytes.
	ErrCrashInjected = errors.New("store: injected WAL crash")
)

// Options tunes Open.
type Options struct {
	// CheckpointWALBytes triggers a checkpoint when the WAL grows past
	// this many bytes; <= 0 uses 4 MiB. Checkpoints also run at Close.
	CheckpointWALBytes int64
	// CacheLimitPages bounds the in-memory page cache; clean pages beyond
	// it are evicted (dirty pages are pinned until checkpointed). Clean
	// overflow pages are never cached, so the bound is spent on B+tree
	// nodes. <= 0 uses 16384 pages (64 MiB).
	CacheLimitPages int
	// CrashWALBytes, when > 0, injects a crash once that many cumulative
	// bytes have been appended to the WAL (counted across checkpoints):
	// the crossing append is written only partially and fails with
	// ErrCrashInjected, and the database marks itself failed. This is
	// the crash-injection hook the recovery torture tests kill the store
	// with; production code leaves it 0.
	CrashWALBytes int64
	// NoSync disables WAL fsyncs (commits are still ordered and crash
	// recovery still truncates torn tails, but an OS crash can lose
	// recently acknowledged commits). Benchmarks opt in; durability
	//-sensitive callers must not.
	NoSync bool
}

func (o Options) checkpointBytes() int64 {
	if o.CheckpointWALBytes <= 0 {
		return 4 << 20
	}
	return o.CheckpointWALBytes
}

func (o Options) cachePages() int {
	if o.CacheLimitPages <= 0 {
		return 16384
	}
	return o.CacheLimitPages
}

// Stats is a point-in-time account of the engine, for metrics exposition.
type Stats struct {
	// TxID is the last committed transaction id.
	TxID uint64
	// Commits and Checkpoints count since Open.
	Commits     uint64
	Checkpoints uint64
	// PageCount is the page-file size in pages (including meta slots).
	PageCount uint64
	// FreePages counts immediately reusable pages; PendingPages counts
	// pages freed but still pinned by (or awaiting release of) snapshots.
	FreePages    int
	PendingPages int
	// CachedPages is the in-memory page cache's population: B+tree nodes,
	// plus the overflow pages not yet checkpointed.
	CachedPages int
	// WALBytes is the current WAL length.
	WALBytes int64
	// ActiveSnapshots counts unreleased snapshots.
	ActiveSnapshots int
}
