package mpi

import (
	"bgpsim/internal/machine"
	"bgpsim/internal/sim"
)

// Collective algorithm thresholds (bytes), chosen to mirror common
// MPICH-style switch points. The machine selection tables carry the
// same values (machine.CollTable); these constants remain the
// reference for the closed-form models in analytic.go.
const (
	allreduceRDLimit = 2048  // recursive doubling below, Rabenseifner above
	bcastSegment     = 8192  // binomial segment size for large broadcasts
	bcastBinomialMax = 12288 // unsegmented binomial below this size
)

// Hardware-offload eligibility: the BlueGene collective tree and
// global interrupt network span the whole partition, so they serve
// only full-COMM_WORLD collectives; the tree ALU reduces integers and
// (on BG/P) doubles, so single-precision reductions fall back to the
// torus (the paper's Figure 3a/b asymmetry).

func treeEligible(m *machine.Machine, world bool, _ int, _ CollArgs) bool {
	return world && m.HasTree
}

func treeReduceEligible(m *machine.Machine, world bool, _ int, a CollArgs) bool {
	return world && m.HasTree && m.TreeHWReduce && a.Double
}

func barrierNetEligible(m *machine.Machine, world bool, _ int, _ CollArgs) bool {
	return world && m.HasBarrierNet
}

// Barrier synchronizes the communicator. On a BlueGene world
// communicator the stock table uses the global interrupt network;
// otherwise a dissemination barrier over the torus.
func (c *Comm) Barrier(r *Rank) {
	c.runColl(r, opBarrier, CollArgs{})
}

// Bcast broadcasts bytes from communicator rank root. On a BlueGene
// world communicator the stock table rides the hardware collective
// tree.
func (c *Comm) Bcast(r *Rank, root, bytes int) {
	c.runColl(r, opBcast, CollArgs{Root: root, Bytes: bytes})
}

// Allreduce combines a buffer of the given byte size across the
// communicator and distributes the result. The doublePrecision flag
// selects the operand type: on BG/P the collective tree reduces double
// precision in hardware, while single precision falls back to the
// software algorithm on the torus (the paper's Figure 3a/b asymmetry).
func (c *Comm) Allreduce(r *Rank, bytes int, doublePrecision bool) {
	c.runColl(r, opAllreduce, CollArgs{Bytes: bytes, Double: doublePrecision})
}

// Reduce combines a buffer to communicator rank root (stock table: a
// binomial tree, or the hardware tree for eligible world reductions).
func (c *Comm) Reduce(r *Rank, root, bytes int, doublePrecision bool) {
	c.runColl(r, opReduce, CollArgs{Root: root, Bytes: bytes, Double: doublePrecision})
}

// Allgather gathers bytesPerRank from every member to every member
// (stock table: the ring algorithm).
func (c *Comm) Allgather(r *Rank, bytesPerRank int) {
	c.runColl(r, opAllgather, CollArgs{Bytes: bytesPerRank})
}

// Alltoall exchanges bytesPerPair with every other member (stock
// table: pairwise exchange, XOR schedule at power-of-two sizes).
func (c *Comm) Alltoall(r *Rank, bytesPerPair int) {
	c.runColl(r, opAlltoall, CollArgs{Bytes: bytesPerPair})
}

// Gather collects bytesPerRank from every member at root (stock
// table: a binomial tree with subtree aggregation).
func (c *Comm) Gather(r *Rank, root, bytesPerRank int) {
	c.runColl(r, opGather, CollArgs{Root: root, Bytes: bytesPerRank})
}

func init() {
	registerCollAlgo(&CollAlgo{Op: "barrier", Name: "hw-gi", HW: true,
		Eligible: barrierNetEligible,
		Dur:      func(c *Comm, _ CollArgs) sim.Duration { return c.w.net.HWBarrier() }})
	registerCollAlgo(&CollAlgo{Op: "barrier", Name: "dissemination", Run: barrierDissemination})

	// The hardware tree broadcast: everyone is released when the
	// payload has streamed down the tree after the root (and all
	// receivers) arrived. The tree is a shared resource but a world
	// collective has no competing traffic.
	registerCollAlgo(&CollAlgo{Op: "bcast", Name: "tree-offload", HW: true,
		Eligible: treeEligible,
		Dur:      func(c *Comm, a CollArgs) sim.Duration { return c.w.net.TreeBcast(a.Bytes) }})
	registerCollAlgo(&CollAlgo{Op: "bcast", Name: "binomial", Run: bcastBinomial})
	registerCollAlgo(&CollAlgo{Op: "bcast", Name: "binomial-pipelined", Run: bcastBinomialPipelined})

	registerCollAlgo(&CollAlgo{Op: "allreduce", Name: "tree-offload", HW: true,
		Eligible: treeReduceEligible,
		Dur:      func(c *Comm, a CollArgs) sim.Duration { return c.w.net.TreeAllreduce(a.Bytes) }})
	registerCollAlgo(&CollAlgo{Op: "allreduce", Name: "recdbl", Run: allreduceRecDoubling})
	registerCollAlgo(&CollAlgo{Op: "allreduce", Name: "rabenseifner", Run: allreduceRabenseifner})

	// Hardware tree reduction: one upward traversal.
	registerCollAlgo(&CollAlgo{Op: "reduce", Name: "tree-offload", HW: true,
		Eligible: treeReduceEligible,
		Dur:      func(c *Comm, a CollArgs) sim.Duration { return c.w.net.TreeBcast(a.Bytes) }})
	registerCollAlgo(&CollAlgo{Op: "reduce", Name: "binomial", Run: reduceBinomial})

	registerCollAlgo(&CollAlgo{Op: "allgather", Name: "ring", Run: allgatherRing})
	registerCollAlgo(&CollAlgo{Op: "alltoall", Name: "pairwise", Run: alltoallPairwise})
	registerCollAlgo(&CollAlgo{Op: "gather", Name: "binomial", Run: gatherBinomial})
}

// barrierDissemination is the software barrier: ceil(log2 P) rounds,
// in round k exchanging a token with the ranks 2^k away.
func barrierDissemination(c *Comm, r *Rank, key collKey, _ CollArgs) {
	p := c.Size()
	if p == 1 {
		return
	}
	me := c.Rank(r)
	for k, dist := 0, 1; dist < p; k, dist = k+1, dist*2 {
		dst := c.Member((me + dist) % p)
		src := c.Member(((me-dist)%p + p) % p)
		r.sendrecvColl(dst, 1, src, key.round(roundR, k))
	}
}

// bcastBinomial sends the whole payload down a binomial tree rooted at
// root in one unsegmented wave (the short-message algorithm).
func bcastBinomial(c *Comm, r *Rank, key collKey, a CollArgs) {
	bcastBinomialSegmented(c, r, key, a.Root, a.Bytes, a.Bytes)
}

// bcastBinomialPipelined segments large payloads so the binomial-tree
// forwarding pipelines (the long-message algorithm).
func bcastBinomialPipelined(c *Comm, r *Rank, key collKey, a CollArgs) {
	seg := bcastSegment
	if a.Bytes <= seg {
		seg = a.Bytes
	}
	bcastBinomialSegmented(c, r, key, a.Root, a.Bytes, seg)
}

// bcastBinomialSegmented is the common binomial broadcast body: the
// payload travels in ceil(bytes/seg) waves, each wave a full binomial
// tree keyed separately so consecutive waves overlap in the tree.
func bcastBinomialSegmented(c *Comm, r *Rank, key collKey, root, bytes, seg int) {
	p := c.Size()
	if p == 1 {
		return
	}
	nseg := 1
	if seg > 0 && bytes > seg {
		nseg = (bytes + seg - 1) / seg
	}
	me := c.Rank(r)
	rel := (me - root + p) % p
	for s := 0; s < nseg; s++ {
		sz := seg
		if s == nseg-1 && bytes > 0 {
			sz = bytes - (nseg-1)*seg
		}
		skey := key
		if nseg > 1 {
			skey = key.round(roundSeg, s)
		}
		// Receive from parent (lowest set bit of rel).
		mask := 1
		for mask < p {
			if rel&mask != 0 {
				src := c.Member((rel - mask + root) % p)
				r.recvColl(src, skey)
				break
			}
			mask <<= 1
		}
		// Forward to children.
		for mask >>= 1; mask > 0; mask >>= 1 {
			if rel+mask < p {
				dst := c.Member((rel + mask + root) % p)
				r.sendColl(dst, sz, skey)
			}
		}
	}
}

// allreduceRecDoubling: fold to a power of two, then log2 rounds of
// pairwise exchange-and-combine, then unfold.
func allreduceRecDoubling(c *Comm, r *Rank, key collKey, a CollArgs) {
	p := c.Size()
	if p == 1 {
		return
	}
	bytes := a.Bytes
	me := c.Rank(r)
	pof2 := pow2Floor(p)
	rem := p - pof2

	if me < 2*rem {
		if me%2 == 0 {
			r.sendColl(c.Member(me+1), bytes, key.phase(phaseFold))
		} else {
			r.recvColl(c.Member(me-1), key.phase(phaseFold))
			r.reduceFlops(bytes)
		}
	}
	nr := foldIn(me, p, pof2)
	if nr >= 0 {
		for k, mask := 0, 1; mask < pof2; k, mask = k+1, mask*2 {
			partner := c.Member(unfold(nr^mask, p, pof2))
			r.sendrecvColl(partner, bytes, partner, key.round(roundR, k))
			r.reduceFlops(bytes)
		}
	}
	if me < 2*rem {
		if me%2 == 0 {
			r.recvColl(c.Member(me+1), key.phase(phaseUnfold))
		} else {
			r.sendColl(c.Member(me-1), bytes, key.phase(phaseUnfold))
		}
	}
}

// allreduceRabenseifner: fold, reduce-scatter by recursive halving,
// allgather by recursive doubling, unfold. Moves 2*bytes*(pof2-1)/pof2
// per rank instead of log2(P)*bytes.
func allreduceRabenseifner(c *Comm, r *Rank, key collKey, a CollArgs) {
	p := c.Size()
	if p == 1 {
		return
	}
	bytes := a.Bytes
	me := c.Rank(r)
	pof2 := pow2Floor(p)
	rem := p - pof2

	if me < 2*rem {
		if me%2 == 0 {
			r.sendColl(c.Member(me+1), bytes, key.phase(phaseFold))
		} else {
			r.recvColl(c.Member(me-1), key.phase(phaseFold))
			r.reduceFlops(bytes)
		}
	}
	nr := foldIn(me, p, pof2)
	if nr >= 0 {
		// Reduce-scatter: halve the active buffer each round.
		chunk := bytes / 2
		for k, mask := 0, 1; mask < pof2; k, mask = k+1, mask*2 {
			partner := c.Member(unfold(nr^mask, p, pof2))
			r.sendrecvColl(partner, chunk, partner, key.round(roundRS, k))
			r.reduceFlops(chunk)
			if chunk > 1 {
				chunk /= 2
			}
		}
		// Allgather: double the buffer each round.
		chunk = bytes / pof2
		if chunk < 1 {
			chunk = 1
		}
		for k, mask := 0, 1; mask < pof2; k, mask = k+1, mask*2 {
			partner := c.Member(unfold(nr^mask, p, pof2))
			r.sendrecvColl(partner, chunk, partner, key.round(roundAG, k))
			chunk *= 2
		}
	}
	if me < 2*rem {
		if me%2 == 0 {
			r.recvColl(c.Member(me+1), key.phase(phaseUnfold))
		} else {
			r.sendColl(c.Member(me-1), bytes, key.phase(phaseUnfold))
		}
	}
}

// reduceBinomial combines a buffer to root via a binomial tree.
func reduceBinomial(c *Comm, r *Rank, key collKey, a CollArgs) {
	p := c.Size()
	if p == 1 {
		return
	}
	me := c.Rank(r)
	rel := (me - a.Root + p) % p
	for k, mask := 0, 1; mask < p; k, mask = k+1, mask*2 {
		rkey := key.round(roundR, k)
		if rel&mask == 0 {
			src := rel | mask
			if src < p {
				r.recvColl(c.Member((src+a.Root)%p), rkey)
				r.reduceFlops(a.Bytes)
			}
		} else {
			dst := rel &^ mask
			r.sendColl(c.Member((dst+a.Root)%p), a.Bytes, rkey)
			break
		}
	}
}

// allgatherRing circulates each member's contribution around the ring:
// P-1 rounds of one chunk each.
func allgatherRing(c *Comm, r *Rank, key collKey, a CollArgs) {
	p := c.Size()
	if p == 1 {
		return
	}
	me := c.Rank(r)
	right := c.Member((me + 1) % p)
	left := c.Member((me - 1 + p) % p)
	for k := 0; k < p-1; k++ {
		r.sendrecvColl(right, a.Bytes, left, key.round(roundR, k))
	}
}

// alltoallPairwise exchanges with every other member one at a time
// (XOR schedule when the size is a power of two).
func alltoallPairwise(c *Comm, r *Rank, key collKey, a CollArgs) {
	p := c.Size()
	if p == 1 {
		return
	}
	me := c.Rank(r)
	pow2 := p&(p-1) == 0
	for k := 1; k < p; k++ {
		var dst, src int
		if pow2 {
			dst = me ^ k
			src = dst
		} else {
			dst = (me + k) % p
			src = (me - k + p) % p
		}
		r.sendrecvColl(c.Member(dst), a.Bytes, c.Member(src), key.round(roundR, k))
	}
}

// gatherBinomial collects bytesPerRank from every member at root via a
// binomial tree with subtree aggregation.
func gatherBinomial(c *Comm, r *Rank, key collKey, a CollArgs) {
	p := c.Size()
	if p == 1 {
		return
	}
	me := c.Rank(r)
	rel := (me - a.Root + p) % p
	have := 1 // subtree ranks aggregated so far
	for k, mask := 0, 1; mask < p; k, mask = k+1, mask*2 {
		rkey := key.round(roundR, k)
		if rel&mask == 0 {
			src := rel | mask
			if src < p {
				sub := mask
				if rel+2*mask > p {
					sub = p - src // partial subtree at the edge
				}
				r.recvColl(c.Member((src+a.Root)%p), rkey)
				have += sub
			}
		} else {
			dst := rel &^ mask
			r.sendColl(c.Member((dst+a.Root)%p), have*a.Bytes, rkey)
			break
		}
	}
}
