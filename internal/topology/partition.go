package topology

import (
	"fmt"
	"sort"
)

// Partition is a job-visible view of a subset of a machine torus: the
// contract between the facility layer (which carves a shared machine
// into per-job allocations) and the simulation stack (which runs one
// job on the view). The paper's §II.A.3 contrast is exactly the two
// shapes a Partition can take:
//
//   - BlueGene partitions are electrically isolated rectangular
//     sub-tori: Prism is set, Isolated is true, and the job's traffic
//     never shares a link with another job.
//   - Cray XT allocations are whatever nodes a linear scan found free:
//     the node set is scattered, routes between member nodes pass
//     through non-member nodes, and the links there carry other jobs'
//     traffic too (ExternalRouteShare / LinkShare quantify the cost).
type Partition struct {
	// Parent is the machine torus the partition was carved from.
	Parent *Torus
	// Nodes lists the member nodes as parent indices, in
	// partition-local order: local node i of the job's view is
	// Nodes[i]. For prism partitions the order is x-fastest within the
	// prism, matching Torus linearization of the view.
	Nodes []int
	// Prism is the view shape when the members form a contiguous
	// rectangular prism (zero otherwise).
	Prism Dims
	// Origin is the prism's corner in parent coordinates (valid only
	// when Prism is set).
	Origin Coord
	// Isolated marks an electrically isolated partition: routes stay
	// inside and no link is shared with other jobs.
	Isolated bool

	local map[int]int // parent node -> local index
}

// NewPrismPartition carves the rectangular prism of the given shape at
// origin out of the parent torus. The prism must fit without wrapping.
// Isolated partitions model BlueGene's electrically partitioned
// sub-tori.
func NewPrismPartition(parent *Torus, origin Coord, shape Dims, isolated bool) (*Partition, error) {
	if shape.Nodes() <= 0 {
		return nil, fmt.Errorf("topology: empty prism shape %v", shape)
	}
	for i := 0; i < 3; i++ {
		if origin[i] < 0 || shape[i] <= 0 || origin[i]+shape[i] > parent.Dims[i] {
			return nil, fmt.Errorf("topology: prism %v at %v does not fit torus %v", shape, origin, parent.Dims)
		}
	}
	p := &Partition{Parent: parent, Prism: shape, Origin: origin, Isolated: isolated}
	p.Nodes = make([]int, 0, shape.Nodes())
	for z := 0; z < shape[2]; z++ {
		for y := 0; y < shape[1]; y++ {
			for x := 0; x < shape[0]; x++ {
				p.Nodes = append(p.Nodes, parent.NodeAt(Coord{origin[0] + x, origin[1] + y, origin[2] + z}))
			}
		}
	}
	p.buildLocal()
	return p, nil
}

// NewScatteredPartition wraps an arbitrary node set (XT-style
// fragmented allocation). The node order is preserved as the local
// order; nodes must be distinct and in range.
func NewScatteredPartition(parent *Torus, nodes []int) (*Partition, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("topology: empty partition")
	}
	p := &Partition{Parent: parent, Nodes: append([]int(nil), nodes...)}
	seen := make(map[int]bool, len(nodes))
	for _, n := range nodes {
		if n < 0 || n >= parent.Dims.Nodes() {
			return nil, fmt.Errorf("topology: partition node %d out of range (torus has %d nodes)", n, parent.Dims.Nodes())
		}
		if seen[n] {
			return nil, fmt.Errorf("topology: partition node %d listed twice", n)
		}
		seen[n] = true
	}
	p.buildLocal()
	return p, nil
}

func (p *Partition) buildLocal() {
	p.local = make(map[int]int, len(p.Nodes))
	for i, n := range p.Nodes {
		p.local[n] = i
	}
}

// Size returns the number of member nodes.
func (p *Partition) Size() int { return len(p.Nodes) }

// Rect reports whether the partition is a contiguous rectangular
// prism.
func (p *Partition) Rect() bool { return p.Prism.Nodes() > 0 }

// ViewDims returns the torus shape the job sees: the prism shape for
// rectangular partitions, otherwise the most-cubic shape of the same
// node count (a fragmented allocation has no geometric shape of its
// own; the compact view plus the LinkShare derate is the model).
func (p *Partition) ViewDims() Dims {
	if p.Rect() {
		return p.Prism
	}
	return DimsForNodes(len(p.Nodes))
}

// LocalOf returns the partition-local index of a parent node, or
// (-1, false) when the node is not a member.
func (p *Partition) LocalOf(parent int) (int, bool) {
	i, ok := p.local[parent]
	if !ok {
		return -1, false
	}
	return i, true
}

// ParentOf returns the parent node index of a local node. It panics on
// an out-of-range local index.
func (p *Partition) ParentOf(local int) int { return p.Nodes[local] }

// Contains reports whether the parent node belongs to the partition.
func (p *Partition) Contains(parent int) bool {
	_, ok := p.local[parent]
	return ok
}

// Intersect returns the partition-local indices of the given parent
// nodes that belong to the partition, sorted ascending.
func (p *Partition) Intersect(parents []int) []int {
	var locals []int
	for _, n := range parents {
		if i, ok := p.local[n]; ok {
			locals = append(locals, i)
		}
	}
	sort.Ints(locals)
	return locals
}

// sampleStride returns the deterministic stride used to subsample
// node pairs in the placement metrics (all pairs is O(n^2 * diameter)).
func sampleStride(n int) int {
	if n > 150 {
		return n / 64
	}
	return 1
}

// ExternalRouteShare returns the fraction of hops on routes between
// member nodes that pass through NON-member nodes. Isolated partitions
// score zero by definition: BlueGene rewires an isolated block as a
// private torus with its own wrap links, so no route ever touches
// another job's links. Fragmented allocations score higher the more
// they scatter, and the links on those external hops are shared with
// other jobs' traffic.
func (p *Partition) ExternalRouteShare() float64 {
	if p.Isolated {
		return 0
	}
	total, external := 0, 0
	stride := sampleStride(len(p.Nodes))
	for i := 0; i < len(p.Nodes); i += stride {
		for j := 0; j < len(p.Nodes); j += stride {
			if i == j {
				continue
			}
			for _, l := range p.Parent.Route(p.Nodes[i], p.Nodes[j]) {
				total++
				if _, ok := p.local[l.Node]; !ok {
					external++
				}
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(external) / float64(total)
}

// LinkShare returns the effective link-bandwidth factor the job
// should simulate with, in (0, 1]: 1 for isolated partitions, lower
// when routes leave the partition. The model assumes each external hop
// carries on average one other job's flow, so a fraction e of shared
// hops stretches serialization by (1 + e) — the factor is 1/(1+e).
// This is the per-job, facility-driven refinement of the machine
// catalog's static BisectionDerate.
func (p *Partition) LinkShare() float64 {
	e := p.ExternalRouteShare()
	if e <= 0 {
		return 1
	}
	return 1 / (1 + e)
}

// String describes the partition.
func (p *Partition) String() string {
	if p.Rect() {
		iso := "shared"
		if p.Isolated {
			iso = "isolated"
		}
		return fmt.Sprintf("prism %v at %v (%s, %d nodes)", p.Prism, p.Origin, iso, len(p.Nodes))
	}
	return fmt.Sprintf("scattered %d nodes on %v", len(p.Nodes), p.Parent.Dims)
}
