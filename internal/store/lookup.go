package store

import (
	"bytes"
	"fmt"
)

// treeReader abstracts page access so the same lookup and scan code serves
// both committed snapshots and the in-flight write transaction (which must
// see its own uncommitted nodes).
type treeReader interface {
	readNode(pgid uint64) (*node, error)
	readRaw(pgid uint64) ([]byte, error)
}

func validateKey(key []byte) error {
	if len(key) == 0 {
		return ErrEmptyKey
	}
	if len(key) > maxKey {
		return ErrKeyTooLarge
	}
	return nil
}

// leafValue materializes the value of leaf cell i, following the overflow
// chain when the value is not inline. The returned slice must not be
// modified by the caller.
func leafValue(r treeReader, n *node, i int) ([]byte, error) {
	if n.ovf[i] == 0 {
		return n.vals[i], nil
	}
	return readOverflow(n.ovf[i], int(n.vlen[i]), r.readRaw)
}

// errTooDeep refuses a walk that passes maxTreeDepth.
var errTooDeep = fmt.Errorf("%w: tree deeper than %d levels", ErrCorrupt, maxTreeDepth)

// lookupKey walks root-to-leaf for key.
func lookupKey(r treeReader, root uint64, key []byte) ([]byte, bool, error) {
	if root == 0 {
		return nil, false, nil
	}
	pgid := root
	for depth := 0; ; depth++ {
		if depth > maxTreeDepth {
			return nil, false, errTooDeep
		}
		n, err := r.readNode(pgid)
		if err != nil {
			return nil, false, err
		}
		if n.leaf {
			i, found := n.search(key)
			if !found {
				return nil, false, nil
			}
			v, err := leafValue(r, n, i)
			return v, err == nil, err
		}
		if len(n.children) == 0 {
			return nil, false, fmt.Errorf("%w: empty branch page %d", ErrCorrupt, pgid)
		}
		pgid = n.children[n.childIndex(key)]
	}
}

// scanTree walks keys in [start, end) in order (nil start = from the
// beginning, nil end = to the end), invoking fn per pair. fn returning
// false stops the scan early; its error aborts with that error.
func scanTree(r treeReader, root uint64, start, end []byte, fn func(key, val []byte) (bool, error)) error {
	if root == 0 {
		return nil
	}
	var walk func(pgid uint64, depth int) (bool, error)
	walk = func(pgid uint64, depth int) (bool, error) {
		if depth > maxTreeDepth {
			return false, errTooDeep
		}
		n, err := r.readNode(pgid)
		if err != nil {
			return false, err
		}
		if n.leaf {
			for i := range n.keys {
				if start != nil && bytes.Compare(n.keys[i], start) < 0 {
					continue
				}
				if end != nil && bytes.Compare(n.keys[i], end) >= 0 {
					return false, nil
				}
				v, err := leafValue(r, n, i)
				if err != nil {
					return false, err
				}
				cont, err := fn(n.keys[i], v)
				if err != nil || !cont {
					return false, err
				}
			}
			return true, nil
		}
		if len(n.children) == 0 {
			return false, fmt.Errorf("%w: empty branch page %d", ErrCorrupt, pgid)
		}
		i := 0
		if start != nil {
			i = n.childIndex(start)
		}
		for ; i < len(n.children); i++ {
			// keys[i] is the smallest key of child i: once it reaches end,
			// no later child holds in-range keys.
			if end != nil && bytes.Compare(n.keys[i], end) >= 0 {
				return false, nil
			}
			cont, err := walk(n.children[i], depth+1)
			if err != nil || !cont {
				return false, err
			}
		}
		return true, nil
	}
	_, err := walk(root, 0)
	return err
}
