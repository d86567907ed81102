package mpi

import "fmt"

// Combine folds two payload values into one; it must be associative
// and commutative (AllreducePayload folds in live-rank order).
type Combine func(a, b interface{}) interface{}

// BcastPayload broadcasts a value from communicator rank root along a
// binomial tree of payload-carrying point-to-point messages and
// returns it on every member. The byte count prices the transfer (the
// value itself travels by reference inside the simulator).
//
// This is the data-carrying sibling of Comm.Bcast: use Bcast to model
// a broadcast's cost when only timing matters, and BcastPayload when
// the program actually needs the value (see internal/hpl's panel
// broadcast for the pattern).
//
// Under transparent recovery (fault.Plan.EnableRecovery) the broadcast
// runs over the surviving members after an agreement gate; a dead root
// is replaced by the first surviving rank, which stands in with its
// own value.
func (c *Comm) BcastPayload(r *Rank, root, bytes int, value interface{}) interface{} {
	if root < 0 || root >= c.Size() {
		panic(fmt.Sprintf("mpi: bcast root %d out of range", root))
	}
	lc := c.agreeLive(r, kindBcastPayloadAgree)
	if lc != c {
		root = remapRoot(c, lc, root)
	}
	prev := r.collAlgo
	if c.w.recovery {
		// Defer a mid-collective death to the end so the survivors'
		// in-flight rounds complete (same rule as software collectives).
		r.collAlgo = "payload/bcast"
	}
	value = lc.bcastPayload(r, root, bytes, value)
	if c.w.recovery {
		r.collAlgo = prev
		r.checkDead()
	}
	return value
}

func (c *Comm) bcastPayload(r *Rank, root, bytes int, value interface{}) interface{} {
	key := c.nextKey(r, kindBcastPayload)
	p := c.Size()
	if p == 1 {
		return value
	}
	me := c.Rank(r)
	rel := (me - root + p) % p
	mask := 1
	for mask < p {
		if rel&mask != 0 {
			src := c.Member((rel - mask + root) % p)
			q := r.irecvColl(src, key)
			r.Wait(q)
			value = q.Payload()
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if rel+mask < p {
			dst := c.Member((rel + mask + root) % p)
			r.isendPayload(dst, bytes, 0, key, value)
		}
	}
	return value
}

// GatherPayload collects every member's value at communicator rank
// root, which receives them indexed by communicator rank (others get
// nil). Transfers go directly to the root (the small-world pattern the
// verification paths use).
//
// Under transparent recovery the gather runs over the surviving
// members (indexed by live-communicator rank); a dead root is replaced
// by the first surviving rank.
func (c *Comm) GatherPayload(r *Rank, root, bytesPerRank int, value interface{}) []interface{} {
	if root < 0 || root >= c.Size() {
		panic(fmt.Sprintf("mpi: gather root %d out of range", root))
	}
	lc := c.agreeLive(r, kindGatherPayloadAgree)
	if lc != c {
		root = remapRoot(c, lc, root)
	}
	prev := r.collAlgo
	if c.w.recovery {
		r.collAlgo = "payload/gather"
	}
	out := lc.gatherPayload(r, root, bytesPerRank, value)
	if c.w.recovery {
		r.collAlgo = prev
		r.checkDead()
	}
	return out
}

func (c *Comm) gatherPayload(r *Rank, root, bytesPerRank int, value interface{}) []interface{} {
	key := c.nextKey(r, kindGatherPayload)
	p := c.Size()
	me := c.Rank(r)
	if me != root {
		r.sendPayload(c.Member(root), bytesPerRank, 0, key, value)
		return nil
	}
	out := make([]interface{}, p)
	out[me] = value
	for i := 0; i < p-1; i++ {
		q := r.irecvColl(AnySource, key)
		r.Wait(q)
		out[c.Rank(q.msg.req.r)] = q.Payload()
	}
	return out
}

// AllreducePayload combines every member's value with combine and
// returns the result on all members: a gather to the first rank, a
// fold in communicator-rank order, and a broadcast back. The byte
// count prices each transfer.
//
// Under transparent recovery the reduction runs over the surviving
// members after an agreement gate, so every survivor receives the
// combination of exactly the survivors' contributions — the semantic
// the fault conformance harness checks.
func (c *Comm) AllreducePayload(r *Rank, bytes int, value interface{}, combine Combine) interface{} {
	lc := c.agreeLive(r, kindAllreducePayloadAgree)
	prev := r.collAlgo
	if c.w.recovery {
		r.collAlgo = "payload/allreduce"
	}
	vals := lc.gatherPayload(r, 0, bytes, value)
	if lc.Rank(r) == 0 {
		value = vals[0]
		for i := 1; i < len(vals); i++ {
			value = combine(value, vals[i])
		}
	}
	value = lc.bcastPayload(r, 0, bytes, value)
	if c.w.recovery {
		r.collAlgo = prev
		r.checkDead()
	}
	return value
}
