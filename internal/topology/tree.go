package topology

// Tree describes the BlueGene global collective network spanning a
// partition: a balanced tree of the partition's nodes. The collective
// network model (internal/network) uses only the depth and node count;
// the tree itself is arity-3 on real hardware (each node has three
// links).
type Tree struct {
	Nodes int
	Arity int
	Depth int
}

// NewCollectiveTree returns the collective-network tree spanning n
// nodes with the given arity (BlueGene hardware uses 3; arity < 2 is
// treated as 2).
func NewCollectiveTree(n, arity int) *Tree {
	if n < 1 {
		n = 1
	}
	if arity < 2 {
		arity = 2
	}
	depth := 0
	reach := 1 // nodes reachable at current depth
	total := 1
	for total < n {
		depth++
		reach *= arity
		total += reach
	}
	return &Tree{Nodes: n, Arity: arity, Depth: depth}
}

// Interior reports whether tree node i (breadth-first layout: node i's
// children are i*Arity+1 .. i*Arity+Arity) has at least one child. An
// interior node forwards and combines traffic for its subtree, so
// losing one severs the tree; a leaf only contributes its own data.
func (t *Tree) Interior(i int) bool {
	return i >= 0 && i < t.Nodes && i*t.Arity+1 < t.Nodes
}

// Recoverable reports whether the collective tree survives the loss of
// the given nodes: the hardware can reprogram its class routes around
// dead leaves (they simply stop contributing), but a dead interior
// node takes its whole subtree's path to the root with it, and the
// remaining hardware cannot rebuild a spanning tree.
func (t *Tree) Recoverable(dead []int) bool {
	for _, n := range dead {
		if t.Interior(n) {
			return false
		}
	}
	return true
}

// BinomialRounds returns ceil(log2(n)): the number of rounds for a
// binomial software tree over n participants.
func BinomialRounds(n int) int {
	r := 0
	for p := 1; p < n; p *= 2 {
		r++
	}
	return r
}
