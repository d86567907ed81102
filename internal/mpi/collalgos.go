package mpi

// Alternative software collective algorithms. None of these appear in
// the stock selection tables; they exist for the colltune experiment
// (cmd/paper -exp colltune) and the -coll override flags, which probe
// where each algorithm's cost crosses over the table default's.

func init() {
	registerCollAlgo(&CollAlgo{Op: "barrier", Name: "reduce-bcast", Run: barrierReduceBcast})
	registerCollAlgo(&CollAlgo{Op: "bcast", Name: "scatter-allgather", Run: bcastScatterAllgather})
	registerCollAlgo(&CollAlgo{Op: "allreduce", Name: "ring", Run: allreduceRing})
	registerCollAlgo(&CollAlgo{Op: "reduce", Name: "linear", Run: reduceLinear})
	registerCollAlgo(&CollAlgo{Op: "allgather", Name: "bruck", Run: allgatherBruck})
	registerCollAlgo(&CollAlgo{Op: "alltoall", Name: "bruck", Run: alltoallBruck})
	registerCollAlgo(&CollAlgo{Op: "gather", Name: "linear", Run: gatherLinear})
	registerCollAlgo(&CollAlgo{Op: "scatter", Name: "linear", Run: scatterLinear})
	registerCollAlgo(&CollAlgo{Op: "scan", Name: "linear", Run: scanLinear})
	registerCollAlgo(&CollAlgo{Op: "reducescatter", Name: "pairwise", Run: reduceScatterPairwise})
}

// barrierReduceBcast synchronizes by reducing a token to rank 0 along
// a binomial tree and broadcasting the release back down: 2*log2(P)
// critical-path latencies versus dissemination's log2(P), but only
// P-1 messages per phase instead of P per round.
func barrierReduceBcast(c *Comm, r *Rank, key collKey, _ CollArgs) {
	p := c.Size()
	if p == 1 {
		return
	}
	reduceBinomial(c, r, key.phase(phaseUp), CollArgs{Bytes: 1})
	bcastBinomialSegmented(c, r, key.phase(phaseDown), 0, 1, 1)
}

// bcastScatterAllgather is the van-de-Geijn long-message broadcast:
// binomial-scatter the payload into P chunks, then ring-allgather the
// chunks. Moves ~2*bytes per rank regardless of P, beating the
// pipelined binomial tree when bytes/P still amortizes the latency.
func bcastScatterAllgather(c *Comm, r *Rank, key collKey, a CollArgs) {
	p := c.Size()
	if p == 1 {
		return
	}
	chunk := a.Bytes / p
	if chunk < 1 && a.Bytes > 0 {
		chunk = 1
	}
	scatterBinomial(c, r, key.phase(phaseScatter), CollArgs{Root: a.Root, Bytes: chunk})
	allgatherRing(c, r, key.phase(phaseAllgather), CollArgs{Bytes: chunk})
}

// allreduceRing: reduce-scatter around the ring (P-1 rounds of one
// chunk, combining as it passes), then allgather the reduced chunks
// (P-1 more rounds). Bandwidth-optimal like Rabenseifner but with P-1
// latencies, so it pays off only for very large payloads.
func allreduceRing(c *Comm, r *Rank, key collKey, a CollArgs) {
	p := c.Size()
	if p == 1 {
		return
	}
	chunk := a.Bytes / p
	if chunk < 1 && a.Bytes > 0 {
		chunk = 1
	}
	me := c.Rank(r)
	right := c.Member((me + 1) % p)
	left := c.Member((me - 1 + p) % p)
	for k := 0; k < p-1; k++ {
		r.sendrecvColl(right, chunk, left, key.round(roundRS, k))
		r.reduceFlops(chunk)
	}
	for k := 0; k < p-1; k++ {
		r.sendrecvColl(right, chunk, left, key.round(roundAG, k))
	}
}

// reduceLinear has every member send its full buffer straight to the
// root, which combines the P-1 contributions in rank order: one
// latency, but the root's links serialize all the data.
func reduceLinear(c *Comm, r *Rank, key collKey, a CollArgs) {
	p := c.Size()
	if p == 1 {
		return
	}
	me := c.Rank(r)
	if me == a.Root {
		for i := 0; i < p; i++ {
			if i == a.Root {
				continue
			}
			r.recvColl(c.Member(i), key.round(roundR, i))
			r.reduceFlops(a.Bytes)
		}
	} else {
		r.sendColl(c.Member(a.Root), a.Bytes, key.round(roundR, me))
	}
}

// allgatherBruck runs ceil(log2 P) rounds, doubling the block count
// each round: round k sends the min(2^k, P-2^k) blocks gathered so
// far to rank me-2^k and receives as many from me+2^k. Log latencies
// at any P (the ring needs P-1).
func allgatherBruck(c *Comm, r *Rank, key collKey, a CollArgs) {
	p := c.Size()
	if p == 1 {
		return
	}
	me := c.Rank(r)
	for k, dist := 0, 1; dist < p; k, dist = k+1, dist*2 {
		blocks := dist
		if p-dist < blocks {
			blocks = p - dist
		}
		dst := c.Member((me - dist + p) % p)
		src := c.Member((me + dist) % p)
		r.sendrecvColl(dst, blocks*a.Bytes, src, key.round(roundR, k))
	}
}

// alltoallBruck runs ceil(log2 P) rounds: in round k each member
// bundles every block whose destination offset has bit k set and
// ships the bundle 2^k ranks away. log2(P) latencies instead of P-1,
// at the price of each byte travelling log2(P)/2 times on average.
func alltoallBruck(c *Comm, r *Rank, key collKey, a CollArgs) {
	p := c.Size()
	if p == 1 {
		return
	}
	me := c.Rank(r)
	for k, dist := 0, 1; dist < p; k, dist = k+1, dist*2 {
		blocks := 0
		for j := 1; j < p; j++ {
			if j/dist%2 == 1 {
				blocks++
			}
		}
		dst := c.Member((me + dist) % p)
		src := c.Member((me - dist + p) % p)
		r.sendrecvColl(dst, blocks*a.Bytes, src, key.round(roundR, k))
	}
}

// gatherLinear has every member send its contribution straight to the
// root: one latency, serialized at the root's links.
func gatherLinear(c *Comm, r *Rank, key collKey, a CollArgs) {
	p := c.Size()
	if p == 1 {
		return
	}
	me := c.Rank(r)
	if me == a.Root {
		for i := 0; i < p; i++ {
			if i == a.Root {
				continue
			}
			r.recvColl(c.Member(i), key.round(roundR, i))
		}
	} else {
		r.sendColl(c.Member(a.Root), a.Bytes, key.round(roundR, me))
	}
}

// scatterLinear has the root send each member its chunk directly.
func scatterLinear(c *Comm, r *Rank, key collKey, a CollArgs) {
	p := c.Size()
	if p == 1 {
		return
	}
	me := c.Rank(r)
	if me == a.Root {
		for i := 0; i < p; i++ {
			if i == a.Root {
				continue
			}
			r.sendColl(c.Member(i), a.Bytes, key.round(roundR, i))
		}
	} else {
		r.recvColl(c.Member(a.Root), key.round(roundR, me))
	}
}

// scanLinear pipelines the prefix through the ranks: each member waits
// for its left neighbour's partial result, combines, and passes its
// own on. P-1 latencies on the critical path but only P-1 messages
// total (the log-step algorithm sends P*log2(P)).
func scanLinear(c *Comm, r *Rank, key collKey, a CollArgs) {
	p := c.Size()
	if p == 1 {
		return
	}
	me := c.Rank(r)
	if me > 0 {
		r.recvColl(c.Member(me-1), key.round(roundR, me-1))
		r.reduceFlops(a.Bytes)
	}
	if me+1 < p {
		r.sendColl(c.Member(me+1), a.Bytes, key.round(roundR, me))
	}
}

// reduceScatterPairwise exchanges directly with every other member:
// in round k, send the slice owned by rank me+k and receive my slice's
// contribution from rank me-k. P-1 rounds of one slice each, no fold
// step at non-power-of-two sizes.
func reduceScatterPairwise(c *Comm, r *Rank, key collKey, a CollArgs) {
	p := c.Size()
	if p == 1 {
		return
	}
	me := c.Rank(r)
	for k := 1; k < p; k++ {
		dst := c.Member((me + k) % p)
		src := c.Member((me - k + p) % p)
		r.sendrecvColl(dst, a.Bytes, src, key.round(roundR, k))
		r.reduceFlops(a.Bytes)
	}
}
