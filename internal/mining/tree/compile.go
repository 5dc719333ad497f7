package tree

import (
	"math"

	"roadcrash/internal/data"
)

// This file is the compiled half of the tree engine. A fitted Tree is a
// pointer-linked node graph — ideal for growth and rule rendering, hostile
// to the scoring hot path, where every hop is a potential cache miss.
// Compile lowers the tree into a contiguous slice of flat nodes laid out
// in preorder (a node's left child is always the next slot, so the common
// descent direction is a sequential read), with the split kind packed into
// flag bits instead of interface or pointer dispatch. Routing decisions
// are bit-for-bit the decisions of Tree.Predict: the compiled form stores
// the same cuts, level bitsets and leaf values, so predictions are
// identical down to the float bits.

// flat node flag bits.
const (
	flagNominal     = 1 << iota // split on a nominal level bitset
	flagMissingLeft             // missing values route left
)

// flatNode is one array-encoded tree node. Internal nodes carry the split
// (attr >= 0); leaves carry attr == -1 and the leaf value in cut.
type flatNode struct {
	cut        float64 // interval threshold, or leaf value
	leftLevels uint64  // nominal: bitmask of level indices going left
	left       int32   // left child slot (== own slot + 1, stored anyway)
	right      int32   // right child slot
	attr       int32   // split attribute column; -1 marks a leaf
	flags      uint8
}

// Compiled is the flattened, allocation-free evaluation form of a fitted
// tree. It is immutable and safe for concurrent use.
type Compiled struct {
	nodes      []flatNode
	width      int // full-schema row width the tree consumes
	regression bool
}

// Compile lowers the fitted tree into its flat array encoding.
func (t *Tree) Compile() *Compiled {
	c := &Compiled{width: t.ds.NumAttrs(), regression: t.regression}
	c.nodes, _ = flatten(make([]flatNode, 0, 2*t.leaves), t.root, func(n *node) float64 { return n.value })
	return c
}

// flatten appends n and its subtree in preorder, storing leafVal(n) in each
// leaf's cut slot, and returns the grown slice plus n's slot.
func flatten(nodes []flatNode, n *node, leafVal func(*node) float64) ([]flatNode, int32) {
	slot := int32(len(nodes))
	nodes = append(nodes, flatNode{})
	if n.leaf {
		nodes[slot] = flatNode{attr: -1, cut: leafVal(n)}
		return nodes, slot
	}
	var flags uint8
	if n.nominal {
		flags |= flagNominal
	}
	if n.missingLeft {
		flags |= flagMissingLeft
	}
	var left, right int32
	nodes, left = flatten(nodes, n.left, leafVal)
	nodes, right = flatten(nodes, n.right, leafVal)
	nodes[slot] = flatNode{
		cut: n.cut, leftLevels: n.leftLevels,
		left: left, right: right, attr: int32(n.attr), flags: flags,
	}
	return nodes, slot
}

// goesLeftFlat mirrors goesLeft on the flat encoding.
func goesLeftFlat(n *flatNode, v float64) bool {
	if data.IsMissing(v) {
		return n.flags&flagMissingLeft != 0
	}
	if n.flags&flagNominal != 0 {
		l := int(v)
		if l < 0 || l > 63 {
			return n.flags&flagMissingLeft != 0
		}
		return n.leftLevels&(1<<uint(l)) != 0
	}
	return v <= n.cut
}

// Predict returns the leaf value (probability or mean) for a full-schema
// row — exactly Tree.Predict on the flat encoding.
func (c *Compiled) Predict(row []float64) float64 {
	nodes := c.nodes
	i := int32(0)
	for {
		n := &nodes[i]
		if n.attr < 0 {
			return n.cut
		}
		if goesLeftFlat(n, row[n.attr]) {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// PredictProb returns the positive-class probability, clamping regression
// means to [0,1] exactly as Tree.PredictProb does.
func (c *Compiled) PredictProb(row []float64) float64 {
	v := c.Predict(row)
	if c.regression {
		return math.Min(1, math.Max(0, v))
	}
	return v
}

// PredictProbAt routes row i of a columnar block (schema-ordered columns,
// one slice per attribute) without materializing the row.
func (c *Compiled) PredictProbAt(cols [][]float64, i int) float64 {
	nodes := c.nodes
	s := int32(0)
	for {
		n := &nodes[s]
		if n.attr < 0 {
			if c.regression {
				return math.Min(1, math.Max(0, n.cut))
			}
			return n.cut
		}
		if goesLeftFlat(n, cols[n.attr][i]) {
			s = n.left
		} else {
			s = n.right
		}
	}
}

// ScoreColumns scores every row of a schema-ordered columnar block into
// out (len(out) rows). It allocates nothing and is safe for concurrent
// use.
func (c *Compiled) ScoreColumns(cols [][]float64, out []float64) {
	for i := range out {
		out[i] = c.PredictProbAt(cols, i)
	}
}

// LeafIndex is the flat routing form of a fitted tree: the same preorder
// array layout as Compiled, but its leaves carry the tree's stable leaf
// ids instead of leaf values. Learners that dispatch per-leaf models (M5
// model trees) route through it on the scoring hot path. Routing is
// bit-for-bit Tree.LeafID's. Leaf ids fit exactly in the float64 cut slot
// (they are small non-negative integers), so no second node layout is
// needed. Immutable and safe for concurrent use.
type LeafIndex struct {
	nodes []flatNode
}

// CompileLeafIndex lowers the fitted tree into its flat leaf-routing form.
func (t *Tree) CompileLeafIndex() *LeafIndex {
	nodes, _ := flatten(make([]flatNode, 0, 2*t.leaves), t.root, func(n *node) float64 { return float64(n.id) })
	return &LeafIndex{nodes: nodes}
}

// LeafID routes a full-schema row to its stable leaf id — exactly
// Tree.LeafID on the flat encoding.
func (li *LeafIndex) LeafID(row []float64) int {
	nodes := li.nodes
	i := int32(0)
	for {
		n := &nodes[i]
		if n.attr < 0 {
			return int(n.cut)
		}
		if goesLeftFlat(n, row[n.attr]) {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// MaxLeafID returns the largest leaf id reachable through the index.
func (li *LeafIndex) MaxLeafID() int {
	max := 0
	for i := range li.nodes {
		if li.nodes[i].attr < 0 {
			if id := int(li.nodes[i].cut); id > max {
				max = id
			}
		}
	}
	return max
}
