package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
)

// node is the decoded form of a leaf or branch page.
//
// Leaf: keys[i] ↦ vals[i] (inline) or an overflow chain headed at ovf[i]
// carrying vlen[i] bytes (vals[i] is nil then).
// Branch: children[i] roots the subtree whose smallest key is keys[i];
// len(children) == len(keys).
type node struct {
	leaf     bool
	keys     [][]byte
	vals     [][]byte
	ovf      []uint64
	vlen     []uint32
	children []uint64
}

// Cell overheads (see encode).
const (
	leafCellOverhead   = 2 + 4 + 8 // klen u16, vlen u32, ovf u64
	branchCellOverhead = 2 + 8     // klen u16, child u64
)

// cellSize returns the encoded length of cell i.
func (n *node) cellSize(i int) int {
	if !n.leaf {
		return branchCellOverhead + len(n.keys[i])
	}
	sz := leafCellOverhead + len(n.keys[i])
	if n.ovf[i] == 0 {
		sz += len(n.vals[i])
	}
	return sz
}

// size returns the encoded page length of the node.
func (n *node) size() int {
	return n.headSize(len(n.keys))
}

// headSize returns the encoded page length of the node's first c cells.
func (n *node) headSize(c int) int {
	sz := pageHeaderSize
	for i := range c {
		sz += n.cellSize(i)
	}
	return sz
}

// encode serializes the node into a sealed page buffer. The caller
// guarantees size() <= pageSize (split enforces it).
func (n *node) encode() []byte {
	var p []byte
	if n.leaf {
		p = newPage(flagLeaf)
	} else {
		p = newPage(flagBranch)
	}
	binary.LittleEndian.PutUint16(p[offCount:], uint16(len(n.keys)))
	w := pageHeaderSize
	if n.leaf {
		for i, k := range n.keys {
			binary.LittleEndian.PutUint16(p[w:], uint16(len(k)))
			binary.LittleEndian.PutUint32(p[w+2:], n.vlen[i])
			binary.LittleEndian.PutUint64(p[w+6:], n.ovf[i])
			w += leafCellOverhead
			w += copy(p[w:], k)
			if n.ovf[i] == 0 {
				w += copy(p[w:], n.vals[i])
			}
		}
	} else {
		for i, k := range n.keys {
			binary.LittleEndian.PutUint16(p[w:], uint16(len(k)))
			binary.LittleEndian.PutUint64(p[w+2:], n.children[i])
			w += branchCellOverhead
			w += copy(p[w:], k)
		}
	}
	binary.LittleEndian.PutUint32(p[offDataLen:], uint32(w-pageHeaderSize))
	sealPage(p)
	return p
}

// decodeNode parses a checked page into a node whose keys and inline
// values point into p, capped at their length so an append cannot reach
// the bytes behind them. Nothing writes into a sealed page image (the
// cache serves it to every reader), so the node may share it. Every offset
// is bounds-validated so a page that passed its CRC but carries
// inconsistent cell lengths still surfaces as ErrCorrupt instead of a
// panic.
func decodeNode(p []byte, pgid uint64) (*node, error) {
	flags := pageFlags(p)
	if flags != flagLeaf && flags != flagBranch {
		return nil, fmt.Errorf("%w: page %d has unexpected flags %#x", ErrCorrupt, pgid, flags)
	}
	count := int(pageCount16(p))
	n := &node{leaf: flags == flagLeaf}
	if count > 0 {
		// Size the cell slices once. The count is untrusted: cap it at the
		// cells a page holds at their minimum size (a larger count fails
		// the bounds checks below anyway).
		overhead := branchCellOverhead
		if n.leaf {
			overhead = leafCellOverhead
		}
		c := min(count, (pageSize-pageHeaderSize)/overhead)
		n.keys = make([][]byte, 0, c)
		if n.leaf {
			n.vals = make([][]byte, 0, c)
			n.vlen = make([]uint32, 0, c)
			n.ovf = make([]uint64, 0, c)
		} else {
			n.children = make([]uint64, 0, c)
		}
	}
	r := pageHeaderSize
	bad := func() (*node, error) {
		return nil, fmt.Errorf("%w: page %d cell directory overruns the page", ErrCorrupt, pgid)
	}
	for i := 0; i < count; i++ {
		if n.leaf {
			if r+leafCellOverhead > pageSize {
				return bad()
			}
			klen := int(binary.LittleEndian.Uint16(p[r:]))
			vl := binary.LittleEndian.Uint32(p[r+2:])
			ov := binary.LittleEndian.Uint64(p[r+6:])
			r += leafCellOverhead
			if r+klen > pageSize {
				return bad()
			}
			key := p[r : r+klen : r+klen]
			r += klen
			var val []byte
			if ov == 0 {
				if r+int(vl) > pageSize {
					return bad()
				}
				val = p[r : r+int(vl) : r+int(vl)]
				r += int(vl)
			}
			n.keys = append(n.keys, key)
			n.vals = append(n.vals, val)
			n.vlen = append(n.vlen, vl)
			n.ovf = append(n.ovf, ov)
		} else {
			if r+branchCellOverhead > pageSize {
				return bad()
			}
			klen := int(binary.LittleEndian.Uint16(p[r:]))
			child := binary.LittleEndian.Uint64(p[r+2:])
			r += branchCellOverhead
			if r+klen > pageSize {
				return bad()
			}
			n.keys = append(n.keys, p[r:r+klen:r+klen])
			n.children = append(n.children, child)
			r += klen
		}
	}
	return n, nil
}

// search locates key in a leaf: the insertion index and whether it is
// present.
func (n *node) search(key []byte) (int, bool) {
	i := sort.Search(len(n.keys), func(i int) bool { return bytes.Compare(n.keys[i], key) >= 0 })
	return i, i < len(n.keys) && bytes.Equal(n.keys[i], key)
}

// childIndex picks the branch child whose subtree covers key: the last
// child whose separator is <= key, clamped to 0 for keys below the first
// separator.
func (n *node) childIndex(key []byte) int {
	i := sort.Search(len(n.keys), func(i int) bool { return bytes.Compare(n.keys[i], key) > 0 })
	if i > 0 {
		i--
	}
	return i
}

// insertLeafCell splices a cell into a leaf at index i.
func (n *node) insertLeafCell(i int, key, val []byte, ovf uint64, vlen uint32) {
	n.keys = append(n.keys, nil)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = key
	n.vals = append(n.vals, nil)
	copy(n.vals[i+1:], n.vals[i:])
	n.vals[i] = val
	n.ovf = append(n.ovf, 0)
	copy(n.ovf[i+1:], n.ovf[i:])
	n.ovf[i] = ovf
	n.vlen = append(n.vlen, 0)
	copy(n.vlen[i+1:], n.vlen[i:])
	n.vlen[i] = vlen
}

// insertBranchCell splices a (separator, child) pair into a branch at i.
func (n *node) insertBranchCell(i int, key []byte, child uint64) {
	n.keys = append(n.keys, nil)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = key
	n.children = append(n.children, 0)
	copy(n.children[i+1:], n.children[i:])
	n.children[i] = child
}

// split carves the node's tail cells into a fresh right sibling so both
// halves fit a page, never leaving either side empty. The caller has
// already established size() > pageSize. added is the index of the cell
// the overflowing insert added, or -1 when no cell was added (an
// overwrite, or a branch whose separator grew). After an insert the cut
// falls right after the added cell, or right before it when the cells up
// to and including it overflow a page or it is the last cell: keys
// appended at one point then leave full pages behind them instead of
// half-full ones. Otherwise, or if that cut leaves a half over a page, the
// cut falls at the size midpoint.
func (n *node) split(added int) *node {
	total := n.size()
	cut := 0
	if added >= 0 {
		cut = added + 1
		if cut == len(n.keys) || n.headSize(cut) > pageSize {
			cut = added
		}
		if head := n.headSize(cut); head > pageSize || total-head+pageHeaderSize > pageSize {
			cut = 0
		}
	}
	if cut == 0 {
		cut = len(n.keys) - 1 // fallback: move at least the last cell
		acc := pageHeaderSize
		for i := range n.keys {
			cell := n.cellSize(i)
			if i > 0 && acc+cell > total/2 {
				cut = i
				break
			}
			acc += cell
		}
		cut = max(cut, 1)
	}
	right := &node{leaf: n.leaf}
	right.keys = append(right.keys, n.keys[cut:]...)
	n.keys = n.keys[:cut]
	if n.leaf {
		right.vals = append(right.vals, n.vals[cut:]...)
		n.vals = n.vals[:cut]
		right.ovf = append(right.ovf, n.ovf[cut:]...)
		n.ovf = n.ovf[:cut]
		right.vlen = append(right.vlen, n.vlen[cut:]...)
		n.vlen = n.vlen[:cut]
	} else {
		right.children = append(right.children, n.children[cut:]...)
		n.children = n.children[:cut]
	}
	return right
}
