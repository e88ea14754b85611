package ml

// Compiled forest inference. A fitted (or loaded) RandomForest flattens its
// pointer trees into one contiguous node arena so prediction walks
// cache-coherent memory instead of chasing heap pointers. The flat form is
// the only copy a forest keeps: Fit compiles its pointer trees and drops
// them, and JSON serialization rebuilds them from the arena (the two forms
// are lossless images of each other), so a loaded model costs one arena.
//
// Prediction order is preserved exactly: trees accumulate into the output in
// tree order and the final division is unchanged, so flat predictions are
// bit-identical to the pointer walk they replace.

// flatNode is one compiled tree node, packed to 16 bytes so two nodes share
// a cache line. Interior nodes carry the split (attr >= 0) and the index of
// the right child; the left child is implicit at i+1 (preorder emission
// places it immediately after its parent). Leaves set attr to flatLeaf and
// reuse right as the offset of their class probabilities in the shared
// arena.
type flatNode struct {
	thr   float64
	attr  int32
	right int32
}

const flatLeaf = int32(-1)

// flatForest is the compiled form of an entire ensemble: every tree's nodes
// live in one arena, with per-tree root offsets, and every leaf's class
// probabilities live in one float64 arena (k values per leaf).
type flatForest struct {
	k     int
	roots []int32
	nodes []flatNode
	probs []float64
}

// compileForest flattens the pointer trees. Nodes are emitted preorder, so
// each tree occupies one contiguous arena segment.
func compileForest(trees []*DecisionTree, k int) *flatForest {
	ff := &flatForest{k: k, roots: make([]int32, 0, len(trees))}
	for _, tr := range trees {
		ff.roots = append(ff.roots, ff.emit(tr.root))
	}
	return ff
}

func (ff *flatForest) emit(n *treeNode) int32 {
	id := int32(len(ff.nodes))
	if n.leaf {
		off := int32(len(ff.probs))
		ff.probs = append(ff.probs, n.probs...)
		ff.nodes = append(ff.nodes, flatNode{attr: flatLeaf, right: off})
		return id
	}
	ff.nodes = append(ff.nodes, flatNode{attr: int32(n.attr), thr: n.threshold})
	ff.emit(n.left) // lands at id+1, the implicit left-child slot
	ff.nodes[id].right = ff.emit(n.right)
	return id
}

// leafProbs returns the probability slice of the leaf reached by x in the
// tree rooted at root. The descent selects the next index with a
// conditional move instead of a branch: split directions are close to
// 50/50, so a branching walk stalls on mispredictions at every level.
func (ff *flatForest) leafProbs(root int32, x []float64) []float64 {
	nodes := ff.nodes
	i := root
	for {
		n := &nodes[i]
		a := n.attr
		if a == flatLeaf {
			off := int(n.right)
			return ff.probs[off : off+ff.k : off+ff.k]
		}
		next := n.right
		if x[a] <= n.thr {
			next = i + 1
		}
		i = next
	}
}

// accumulateInto adds every tree's leaf probabilities for x into out, in
// tree order, then divides by the ensemble size — the exact float operation
// sequence of the original per-tree pointer walk.
func (ff *flatForest) accumulateInto(x []float64, out []float64) {
	for _, root := range ff.roots {
		p := ff.leafProbs(root, x)
		for c := range out {
			out[c] += p[c]
		}
	}
	inv := float64(len(ff.roots))
	for c := range out {
		out[c] /= inv
	}
}
