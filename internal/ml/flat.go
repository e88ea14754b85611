package ml

// The fitted-tree form. Every tree model keeps its trees in one contiguous
// node arena, so prediction walks cache-coherent memory instead of chasing
// heap pointers: a DecisionTree is an arena holding one tree, a
// RandomForest one holding all of its trees, and an AdaBoost one holding
// its stumps beside their weights. Trees are grown straight into the arena
// in preorder, both codecs read and write it, and every prediction
// descends it through leafProbs.

// flatNode is one tree node, packed to 16 bytes so two nodes share a
// cache line. Interior nodes carry the split (attr >= 0) and the index of
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

// flatForest holds an entire ensemble: every tree's nodes live in one
// arena, with per-tree root offsets, and every leaf's class probabilities
// live in one float64 arena (k values per leaf).
type flatForest struct {
	k     int
	roots []int32
	nodes []flatNode
	probs []float64
}

// appendTrees adds src's trees after ff's, rebasing their node and
// probability offsets, so each tree keeps one contiguous preorder segment.
func (ff *flatForest) appendTrees(src *flatForest) {
	base, probBase := int32(len(ff.nodes)), int32(len(ff.probs))
	for _, r := range src.roots {
		ff.roots = append(ff.roots, r+base)
	}
	for _, n := range src.nodes {
		if n.attr == flatLeaf {
			n.right += probBase
		} else {
			n.right += base
		}
		ff.nodes = append(ff.nodes, n)
	}
	ff.probs = append(ff.probs, src.probs...)
}

// addLeaf appends a leaf whose class probabilities are probs.
func (ff *flatForest) addLeaf(probs []float64) {
	ff.nodes = append(ff.nodes, flatNode{attr: flatLeaf, right: int32(len(ff.probs))})
	ff.probs = append(ff.probs, probs...)
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
// tree order, then divides by the ensemble size.
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
