package ml

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Binary classifier codec. Tree ensembles dominate model size and load
// time, so they serialize as their flat arrays — four int32s and a
// float64 per node, streamed little-endian — instead of recursive JSON.
// Every other classifier kind falls back to the JSON envelope, wrapped under
// a tag byte so one blob format carries both.

// ErrBinaryCorrupt reports a truncated or internally inconsistent binary
// classifier blob, or a JSON tree payload failing the same structural
// checks. Loaders check for it with errors.Is.
var ErrBinaryCorrupt = errors.New("ml: corrupt or truncated classifier")

const (
	binTagJSON   = 0x00 // payload is a MarshalClassifier JSON envelope
	binTagForest = 0x01 // payload is a flat forest
	binTagTree   = 0x02 // payload is a flat forest holding one tree
)

// MarshalClassifierBinary serializes a trained classifier to the tagged
// binary form.
func MarshalClassifierBinary(c Classifier) ([]byte, error) {
	switch m := c.(type) {
	case *RandomForest:
		if m.flat == nil {
			return nil, fmt.Errorf("ml: binary marshal of unfitted RandomForest")
		}
		return appendFlatForest([]byte{binTagForest}, m.flat), nil
	case *DecisionTree:
		if m.flat == nil {
			return nil, fmt.Errorf("ml: binary marshal of unfitted DecisionTree")
		}
		return appendFlatForest([]byte{binTagTree}, m.flat), nil
	default:
		blob, err := MarshalClassifier(c)
		if err != nil {
			return nil, err
		}
		return append([]byte{binTagJSON}, blob...), nil
	}
}

// UnmarshalClassifierBinary restores a classifier serialized by
// MarshalClassifierBinary.
func UnmarshalClassifierBinary(data []byte) (Classifier, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("%w: empty blob", ErrBinaryCorrupt)
	}
	tag, payload := data[0], data[1:]
	switch tag {
	case binTagJSON:
		return UnmarshalClassifier(payload)
	case binTagForest:
		ff, err := parseFlatForest(payload)
		if err != nil {
			return nil, err
		}
		return &RandomForest{k: ff.k, Trees: len(ff.roots), flat: ff}, nil
	case binTagTree:
		ff, err := parseFlatForest(payload)
		if err != nil {
			return nil, err
		}
		if len(ff.roots) != 1 {
			return nil, fmt.Errorf("%w: tree blob holds %d trees", ErrBinaryCorrupt, len(ff.roots))
		}
		return &DecisionTree{k: ff.k, flat: ff}, nil
	default:
		return nil, fmt.Errorf("%w: unknown tag 0x%02x", ErrBinaryCorrupt, tag)
	}
}

// appendFlatForest encodes: u32 k, u32 len(roots) + roots, u32 len(nodes) +
// nodes (attr, right as i32; thr as f64 bits — the left child is implicit
// at index+1), u32 len(probs) + probs. All little-endian.
func appendFlatForest(dst []byte, ff *flatForest) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(ff.k))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ff.roots)))
	for _, r := range ff.roots {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(r))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ff.nodes)))
	for _, n := range ff.nodes {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(n.attr))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(n.right))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(n.thr))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ff.probs)))
	for _, p := range ff.probs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p))
	}
	return dst
}

// binReader is a bounds-checked little-endian cursor.
type binReader struct {
	data []byte
	off  int
	err  error
}

func (r *binReader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.off+4 > len(r.data) {
		r.err = fmt.Errorf("%w: truncated at byte %d", ErrBinaryCorrupt, r.off)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v
}

func (r *binReader) f64() float64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.data) {
		r.err = fmt.Errorf("%w: truncated at byte %d", ErrBinaryCorrupt, r.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.off:]))
	r.off += 8
	return v
}

// maxBinCount bounds the class count read from a blob.
const maxBinCount = 1 << 26

// count reads a length prefix for items of size bytes each. A count the
// rest of the blob cannot hold is refused before anything is allocated, so
// a corrupt prefix costs at most the blob's own size.
func (r *binReader) count(what string, size int) int {
	n := r.u32()
	if r.err == nil && uint64(n)*uint64(size) > uint64(len(r.data)-r.off) {
		r.err = fmt.Errorf("%w: implausible %s count %d", ErrBinaryCorrupt, what, n)
	}
	return int(n)
}

func parseFlatForest(data []byte) (*flatForest, error) {
	r := &binReader{data: data}
	ff := &flatForest{k: int(r.u32())}
	nRoots := r.count("root", 4)
	if r.err != nil {
		return nil, r.err
	}
	ff.roots = make([]int32, nRoots)
	for i := range ff.roots {
		ff.roots[i] = int32(r.u32())
	}
	nNodes := r.count("node", 16)
	if r.err != nil {
		return nil, r.err
	}
	ff.nodes = make([]flatNode, nNodes)
	for i := range ff.nodes {
		ff.nodes[i] = flatNode{
			attr:  int32(r.u32()),
			right: int32(r.u32()),
			thr:   r.f64(),
		}
	}
	nProbs := r.count("prob", 8)
	if r.err != nil {
		return nil, r.err
	}
	ff.probs = make([]float64, nProbs)
	for i := range ff.probs {
		ff.probs[i] = r.f64()
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBinaryCorrupt, len(data)-r.off)
	}
	if err := ff.validate(); err != nil {
		return nil, err
	}
	return ff, nil
}

// validate checks the structural invariants the preorder emitter
// guarantees: a positive class count, at least one tree, trees laid out
// back to back from node 0 to the arena's end, every interior node's left
// child at i+1 and its right child exactly where its left subtree ends, and
// leaf probability runs inside the arena. Together these make each tree a
// tree: every node is reached exactly once, so no cycle or shared subtree
// can make a recursive walk, such as the JSON codec's rendering, loop or
// blow up exponentially.
func (ff *flatForest) validate() error {
	if ff.k <= 0 || ff.k > maxBinCount {
		return fmt.Errorf("%w: bad class count %d", ErrBinaryCorrupt, ff.k)
	}
	if len(ff.roots) == 0 {
		return fmt.Errorf("%w: no trees", ErrBinaryCorrupt)
	}
	n := int32(len(ff.nodes))
	next := int32(0) // where the next tree must start
	var pending []int32
	for t, root := range ff.roots {
		if root != next {
			return fmt.Errorf("%w: root %d of tree %d is not at node %d", ErrBinaryCorrupt, root, t, next)
		}
		// Walk the tree in preorder; pending holds the interior nodes whose
		// left subtree is still being walked.
		for i := root; ; {
			if i >= n {
				return fmt.Errorf("%w: tree %d runs past the node arena", ErrBinaryCorrupt, t)
			}
			nd := ff.nodes[i]
			if nd.attr != flatLeaf {
				if nd.attr < 0 {
					return fmt.Errorf("%w: node %d bad attr %d", ErrBinaryCorrupt, i, nd.attr)
				}
				pending = append(pending, i)
				i++
				continue
			}
			if nd.right < 0 || int(nd.right)+ff.k > len(ff.probs) {
				return fmt.Errorf("%w: leaf %d probs out of range", ErrBinaryCorrupt, i)
			}
			i++ // a subtree ends after each leaf
			if len(pending) == 0 {
				next = i
				break
			}
			parent := pending[len(pending)-1]
			pending = pending[:len(pending)-1]
			if ff.nodes[parent].right != i {
				return fmt.Errorf("%w: node %d children out of preorder range", ErrBinaryCorrupt, parent)
			}
		}
	}
	if next != n {
		return fmt.Errorf("%w: %d nodes outside every tree", ErrBinaryCorrupt, n-next)
	}
	return nil
}
