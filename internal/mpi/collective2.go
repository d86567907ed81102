package mpi

import "fmt"

// Scatter distributes bytesPerRank from communicator rank root to
// every member (stock table: a binomial tree; subtree chunks travel
// together).
func (c *Comm) Scatter(r *Rank, root, bytesPerRank int) {
	c.runColl(r, opScatter, CollArgs{Root: root, Bytes: bytesPerRank})
}

// Scan computes an inclusive prefix reduction over the communicator
// (MPI_Scan). The stock table uses the standard log-round algorithm.
func (c *Comm) Scan(r *Rank, bytes int) {
	c.runColl(r, opScan, CollArgs{Bytes: bytes})
}

// ReduceScatter reduces a vector of Size()*bytesPerRank across the
// communicator and leaves each member with its bytesPerRank slice
// (stock table: recursive halving on the power-of-two subgroup).
func (c *Comm) ReduceScatter(r *Rank, bytesPerRank int) {
	c.runColl(r, opReduceScatter, CollArgs{Bytes: bytesPerRank})
}

func init() {
	registerCollAlgo(&CollAlgo{Op: "scatter", Name: "binomial", Run: scatterBinomial})
	registerCollAlgo(&CollAlgo{Op: "scan", Name: "logstep", Run: scanLogStep})
	registerCollAlgo(&CollAlgo{Op: "reducescatter", Name: "rechalving", Run: reduceScatterRecHalving})
}

// scatterBinomial distributes per-rank chunks down a binomial tree,
// with subtree chunks travelling together.
func scatterBinomial(c *Comm, r *Rank, key collKey, a CollArgs) {
	p := c.Size()
	if p == 1 {
		return
	}
	me := c.Rank(r)
	rel := (me - a.Root + p) % p
	// Receive the subtree chunk from the parent.
	mask := 1
	for mask < p {
		if rel&mask != 0 {
			src := c.Member((rel - mask + a.Root) % p)
			r.recvColl(src, key)
			break
		}
		mask <<= 1
	}
	// Forward sub-chunks to children (half the remaining data each).
	for mask >>= 1; mask > 0; mask >>= 1 {
		if rel+mask < p {
			sub := mask
			if rel+2*mask > p {
				sub = p - rel - mask
			}
			dst := c.Member((rel + mask + a.Root) % p)
			r.sendColl(dst, sub*a.Bytes, key)
		}
	}
}

// scanLogStep is the standard log-round prefix algorithm: in round k,
// rank i sends its partial result to rank i+2^k and incorporates the
// value from rank i-2^k.
func scanLogStep(c *Comm, r *Rank, key collKey, a CollArgs) {
	p := c.Size()
	if p == 1 {
		return
	}
	me := c.Rank(r)
	for k, dist := 0, 1; dist < p; k, dist = k+1, dist*2 {
		rkey := key.round(roundR, k)
		var sreq *Request
		if me+dist < p {
			sreq = r.isendPayload(c.Member(me+dist), a.Bytes, 0, rkey, nil)
		}
		if me-dist >= 0 {
			r.recvColl(c.Member(me-dist), rkey)
			r.reduceFlops(a.Bytes)
		}
		if sreq != nil {
			r.waitNoOverhead(sreq)
		}
	}
}

// reduceScatterRecHalving: fold to a power of two, then recursive
// halving, leaving each member its slice.
func reduceScatterRecHalving(c *Comm, r *Rank, key collKey, a CollArgs) {
	p := c.Size()
	if p == 1 {
		return
	}
	me := c.Rank(r)
	pof2 := pow2Floor(p)
	rem := p - pof2
	total := a.Bytes * p

	if me < 2*rem {
		if me%2 == 0 {
			r.sendColl(c.Member(me+1), total, key.phase(phaseFold))
		} else {
			r.recvColl(c.Member(me-1), key.phase(phaseFold))
			r.reduceFlops(total)
		}
	}
	nr := foldIn(me, p, pof2)
	if nr >= 0 {
		chunk := total / 2
		for k, mask := 0, 1; mask < pof2; k, mask = k+1, mask*2 {
			partner := c.Member(unfold(nr^mask, p, pof2))
			r.sendrecvColl(partner, chunk, partner, key.round(roundR, k))
			r.reduceFlops(chunk)
			if chunk > 1 {
				chunk /= 2
			}
		}
	}
	if me < 2*rem {
		// Folded-out even ranks receive their slice back.
		if me%2 == 0 {
			r.recvColl(c.Member(me+1), key.phase(phaseUnfold))
		} else {
			r.sendColl(c.Member(me-1), a.Bytes, key.phase(phaseUnfold))
		}
	}
}

// Cart is a Cartesian process-grid view of a communicator, in the
// spirit of MPI_Cart_create: it maps communicator ranks to grid
// coordinates (first dimension varies slowest, as in MPI) and answers
// neighbour queries.
type Cart struct {
	c        *Comm
	dims     []int
	periodic bool
}

// NewCart builds a Cartesian view. The product of dims must equal the
// communicator size.
func NewCart(c *Comm, dims []int, periodic bool) (*Cart, error) {
	n := 1
	for _, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("mpi: bad cartesian extent %d", d)
		}
		n *= d
	}
	if n != c.Size() {
		return nil, fmt.Errorf("mpi: cartesian grid %v holds %d ranks, communicator has %d",
			dims, n, c.Size())
	}
	cp := make([]int, len(dims))
	copy(cp, dims)
	return &Cart{c: c, dims: cp, periodic: periodic}, nil
}

// Comm returns the underlying communicator.
func (ct *Cart) Comm() *Comm { return ct.c }

// Coords returns the grid coordinates of a communicator rank.
func (ct *Cart) Coords(rank int) []int {
	out := make([]int, len(ct.dims))
	for i := len(ct.dims) - 1; i >= 0; i-- {
		out[i] = rank % ct.dims[i]
		rank /= ct.dims[i]
	}
	return out
}

// RankOf returns the communicator rank at the given coordinates,
// wrapping if periodic; out-of-range coordinates on a non-periodic
// grid return -1 (MPI_PROC_NULL).
func (ct *Cart) RankOf(coords []int) int {
	if len(coords) != len(ct.dims) {
		panic(fmt.Sprintf("mpi: coords %v for %d-d grid", coords, len(ct.dims)))
	}
	rank := 0
	for i, c := range coords {
		d := ct.dims[i]
		if c < 0 || c >= d {
			if !ct.periodic {
				return -1
			}
			c = ((c % d) + d) % d
		}
		rank = rank*d + c
	}
	return rank
}

// Shift returns the source and destination communicator ranks for a
// displacement along one dimension (MPI_Cart_shift). Either may be -1
// on a non-periodic grid edge.
func (ct *Cart) Shift(rank, dim, disp int) (src, dst int) {
	coords := ct.Coords(rank)
	up := make([]int, len(coords))
	down := make([]int, len(coords))
	copy(up, coords)
	copy(down, coords)
	up[dim] += disp
	down[dim] -= disp
	return ct.RankOf(down), ct.RankOf(up)
}
