package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Page flags.
const (
	flagLeaf     = 1
	flagBranch   = 2
	flagOverflow = 4
)

// Page header field offsets. The CRC covers bytes [0,16) plus the payload
// [pageHeaderSize, pageSize), i.e. everything except the CRC field itself,
// so a torn write anywhere in the page is detected.
const (
	offFlags   = 0
	offCount   = 2
	offDataLen = 4
	offNext    = 8
	offCRC     = 16
)

// payloadSize is the usable bytes per page after the header.
const payloadSize = pageSize - pageHeaderSize

// pageCRC computes the integrity checksum of an encoded page.
func pageCRC(p []byte) uint32 {
	c := crc32.ChecksumIEEE(p[:offCRC])
	return crc32.Update(c, crc32.IEEETable, p[pageHeaderSize:])
}

// sealPage stamps the CRC of a fully encoded page.
func sealPage(p []byte) {
	binary.LittleEndian.PutUint32(p[offCRC:], pageCRC(p))
}

// checkPage validates a page's checksum before any field is trusted.
func checkPage(p []byte, pgid uint64) error {
	if len(p) != pageSize {
		return fmt.Errorf("%w: page %d has %d bytes", ErrCorrupt, pgid, len(p))
	}
	if got, want := binary.LittleEndian.Uint32(p[offCRC:]), pageCRC(p); got != want {
		return fmt.Errorf("%w: page %d checksum mismatch", ErrCorrupt, pgid)
	}
	return nil
}

// newPage allocates a zeroed page buffer with flags set.
func newPage(flags uint16) []byte {
	p := make([]byte, pageSize)
	binary.LittleEndian.PutUint16(p[offFlags:], flags)
	return p
}

func pageFlags(p []byte) uint16   { return binary.LittleEndian.Uint16(p[offFlags:]) }
func pageCount16(p []byte) uint16 { return binary.LittleEndian.Uint16(p[offCount:]) }
func pageDataLen(p []byte) uint32 { return binary.LittleEndian.Uint32(p[offDataLen:]) }
func pageNext(p []byte) uint64    { return binary.LittleEndian.Uint64(p[offNext:]) }

// encodeOverflow chunks a long value into a chain of overflow pages using
// the given allocator, returning the head page id. Each page's dataLen is
// the bytes it carries; next links the chain.
func encodeOverflow(val []byte, alloc func() uint64, emit func(pgid uint64, page []byte)) uint64 {
	n := len(val)
	npages := (n + payloadSize - 1) / payloadSize
	ids := make([]uint64, npages)
	for i := range ids {
		ids[i] = alloc()
	}
	off := 0
	for i := 0; i < npages; i++ {
		p := newPage(flagOverflow)
		chunk := val[off:min(off+payloadSize, n)]
		binary.LittleEndian.PutUint32(p[offDataLen:], uint32(len(chunk)))
		if i+1 < npages {
			binary.LittleEndian.PutUint64(p[offNext:], ids[i+1])
		}
		copy(p[pageHeaderSize:], chunk)
		sealPage(p)
		emit(ids[i], p)
		off += len(chunk)
	}
	return ids[0]
}

// readOverflow reassembles a value of total length vlen from the chain at
// head, reading pages through read. It validates chain structure and total
// length so a damaged chain surfaces as ErrCorrupt, never a short value.
// The chain must have encodeOverflow's shape: every page carries bytes and
// every page but the last is full. Each hop therefore adds a byte, so even
// a chain that loops back on itself ends at its declared length.
func readOverflow(head uint64, vlen int, read func(pgid uint64) ([]byte, error)) ([]byte, error) {
	out := make([]byte, 0, min(vlen, maxPreallocValue))
	pgid := head
	for pgid != 0 {
		p, err := read(pgid)
		if err != nil {
			return nil, err
		}
		if pageFlags(p) != flagOverflow {
			return nil, fmt.Errorf("%w: page %d is not an overflow page", ErrCorrupt, pgid)
		}
		n, next := int(pageDataLen(p)), pageNext(p)
		if n == 0 || n > payloadSize || (next != 0 && n != payloadSize) {
			return nil, fmt.Errorf("%w: overflow page %d carries %d bytes", ErrCorrupt, pgid, n)
		}
		if len(out)+n > vlen {
			return nil, fmt.Errorf("%w: overflow chain at %d overruns its declared length", ErrCorrupt, head)
		}
		out = append(out, p[pageHeaderSize:pageHeaderSize+n]...)
		pgid = next
	}
	if len(out) != vlen {
		return nil, fmt.Errorf("%w: overflow chain at %d is short (%d of %d bytes)", ErrCorrupt, head, len(out), vlen)
	}
	return out, nil
}

// overflowChain lists the page ids of the chain at head holding a value of
// vlen bytes (for freeing). A chain longer than encodeOverflow makes for
// vlen, a loop among them, is refused.
func overflowChain(head uint64, vlen int, read func(pgid uint64) ([]byte, error)) ([]uint64, error) {
	var ids []uint64
	pgid := head
	for pgid != 0 {
		if len(ids) == (vlen+payloadSize-1)/payloadSize {
			return nil, fmt.Errorf("%w: overflow chain at %d is longer than its declared length", ErrCorrupt, head)
		}
		ids = append(ids, pgid)
		p, err := read(pgid)
		if err != nil {
			return nil, err
		}
		if pageFlags(p) != flagOverflow {
			return nil, fmt.Errorf("%w: page %d is not an overflow page", ErrCorrupt, pgid)
		}
		pgid = pageNext(p)
	}
	return ids, nil
}
