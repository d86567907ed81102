package mpi

import (
	"fmt"
	"sort"
	"strconv"

	"bgpsim/internal/sim"
)

// Comm is a communicator: an ordered set of world ranks. The world
// communicator is created with the World; subsets are made with Split.
// Comm values are shared between the ranks of the communicator.
type Comm struct {
	w       *World
	name    string
	members []int // world rank ids in communicator-rank order
	index   map[int]int
	isWorld bool

	// seq holds each member's collective sequence number on this
	// communicator, by communicator rank (nextSeq). Every member writes
	// only its own slot, so ranks on concurrent shard kernels never
	// touch the same word.
	seq []int

	// Recovery-mode state (recover.go): the cached live sub-communicator
	// for the current failure epoch, and the last epoch whose recovery
	// latency this comm has been charged.
	liveCache *Comm
	liveEpoch int
	recEpoch  int
}

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.members) }

// Rank returns r's rank within the communicator, or -1 if r is not a
// member.
func (c *Comm) Rank(r *Rank) int {
	if c.isWorld {
		return r.id
	}
	if i, ok := c.index[r.id]; ok {
		return i
	}
	return -1
}

// Member returns the world rank id of communicator rank i.
func (c *Comm) Member(i int) int { return c.members[i] }

// newComm returns a communicator over the given world ranks, in
// communicator-rank order. The world communicator is built directly in
// NewWorld (it needs no index).
func newComm(w *World, name string, members []int, epoch int) *Comm {
	c := &Comm{
		w:        w,
		name:     name,
		members:  members,
		index:    make(map[int]int, len(members)),
		seq:      make([]int, len(members)),
		recEpoch: epoch,
	}
	for i, m := range members {
		c.index[m] = i
	}
	return c
}

// nextKey returns the matching key of the rank's next collective of
// the given kind on this communicator (see nextSeq).
func (c *Comm) nextKey(r *Rank, kind opID) collKey {
	return newCollKey(c, c.nextSeq(r), kind)
}

// nextSeq returns the rank's sequence number for its next collective
// on this communicator. MPI requires all members to issue collectives
// in the same order, so the per-member sequence numbers agree. A rank
// that is not a member panics: it has no sequence, and its entry would
// corrupt the members' gate.
func (c *Comm) nextSeq(r *Rank) int {
	i := c.Rank(r)
	if i < 0 {
		c.notMember(r)
	}
	seq := c.seq[i]
	if seq >= maxCollSeq {
		c.seqOverflow()
	}
	c.seq[i] = seq + 1
	return seq
}

//go:noinline
func (c *Comm) notMember(r *Rank) {
	panic(fmt.Sprintf("mpi: rank %d is not a member of communicator %q", r.id, c.name))
}

// seqOverflow reports a communicator whose collective sequence numbers
// no longer fit their field of the matching key (collKey).
//
//go:noinline
func (c *Comm) seqOverflow() {
	panic(fmt.Sprintf("mpi: more than %d collectives on communicator %q", maxCollSeq, c.name))
}

// key builds the text key of collective number seq on this
// communicator: the gate map's key and the text form of collKey. Built
// by hand rather than with fmt, whose deep call stack would run past
// the rank stack budget.
func (c *Comm) key(seq int, kind string) string {
	b := make([]byte, 0, len(c.name)+len(kind)+8)
	b = append(b, c.name...)
	b = append(b, '#')
	b = strconv.AppendInt(b, int64(seq), 10)
	b = append(b, ':')
	b = append(b, kind...)
	return string(b)
}

// gateCall is one collective call as its gate sees it: the matching
// key and what the gate's finisher is built from. fin, when set, is a
// custom release rule (Split, the recovery agreement gates); otherwise
// the gate releases every member at the last arrival plus the call's
// duration — the hardware offload's (al) or, with al nil, op's closed
// form — computed once, when the gate completes.
type gateCall struct {
	c   *Comm
	key string
	fin finisher
	al  *CollAlgo
	op  opID
	a   CollArgs
	seq int

	// gate is the call's open gate once known, so most entrants skip
	// the lookup in World.gates (see openGate).
	gate *gate
}

// uniformCall returns the gate record of r's collective number seq on
// c. The ranks of one shard — or of a serial run — share the record of
// their latest collective, so only the first of them to enter builds
// it (newUniformCall): the key string is made once per shard per
// collective, not once per rank, and the entry path below the rank's
// collective call neither allocates nor hashes.
func (c *Comm) uniformCall(r *Rank, seq int, op opID, al *CollAlgo, a CollArgs) *gateCall {
	last := &c.w.lastCall
	if r.sh != nil {
		last = &r.sh.lastCall
	}
	if g := *last; g != nil && g.c == c && g.seq == seq && g.op == op {
		return g
	}
	return c.newUniformCall(last, seq, op, al, a)
}

// newUniformCall builds and caches a uniform gate record; it is kept
// out of uniformCall because it allocates (rank stack budget,
// docs/PERFORMANCE.md).
//
//go:noinline
func (c *Comm) newUniformCall(last **gateCall, seq int, op opID, al *CollAlgo, a CollArgs) *gateCall {
	if !al.HW {
		al = nil
	}
	g := &gateCall{c: c, key: c.key(seq, collOpNames[op]), al: al, op: op, a: a, seq: seq}
	*last = g
	return g
}

// gate synchronizes the members of one collective operation. Ranks
// enter with a value; when the last member arrives, the call's
// finisher computes each member's release time (and optionally a
// shared result), and everyone resumes at their release time. Each
// member enters once: its collective key carries its own sequence
// number on the communicator (nextSeq).
type gate struct {
	call   *gateCall
	need   int
	closed bool // completed or abandoned; no member enters again
	ranks  []*Rank
	times  []sim.Time
	vals   []interface{} // entry values, kept only for a custom finisher
	result interface{}
}

// newGate opens a gate for call whose entry slices are sized for its
// quorum, the communicator's live membership.
func newGate(call *gateCall) *gate {
	need := call.c.liveSize()
	g := &gate{
		call:  call,
		need:  need,
		ranks: make([]*Rank, 0, need),
		times: make([]sim.Time, 0, need),
	}
	if call.fin != nil {
		g.vals = make([]interface{}, 0, need)
	}
	return g
}

// openGate returns call's open gate, creating it on first entry.
// Entrants holding another record of the same call (another shard's,
// or a serial record rebuilt after an interleaved collective) find it
// by key.
func (w *World) openGate(call *gateCall) *gate {
	if g := call.gate; g != nil && !g.closed {
		return g
	}
	g, ok := w.gates[call.key]
	if !ok {
		g = newGate(call)
		w.gates[call.key] = g
	}
	call.gate = g
	return g
}

// enter adds one member's arrival and completes the gate when the
// quorum is reached.
func (g *gate) enter(r *Rank, t sim.Time, val interface{}) {
	g.ranks = append(g.ranks, r)
	g.times = append(g.times, t)
	if g.vals != nil {
		g.vals = append(g.vals, val)
	}
	if len(g.ranks) == g.need {
		g.call.c.w.completeGate(g)
	}
}

// finisher computes per-entry release times given the entry times. It
// may also return a shared result value.
type finisher func(ranks []*Rank, times []sim.Time, vals []interface{}) (release []sim.Time, result interface{})

// sync enters the calling rank into the gate of the given collective
// call and blocks until released. It returns the finisher's shared
// result.
func (c *Comm) sync(r *Rank, call *gateCall, val interface{}) interface{} {
	if r.sh != nil {
		return c.syncShard(r, call, val)
	}
	g := c.w.openGate(call)
	g.enter(r, r.proc.Now(), val)
	r.proc.BlockWith("collective ", call.key)
	if r.gateDropped {
		// Removed from an open gate by failNode: unwind out of the
		// collective instead of consuming its (possibly absent) result.
		// A dead rank released from a *completed* gate must NOT unwind
		// here: the gate's decision already committed it (a software
		// algorithm over the pre-death membership may need its rounds),
		// so it proceeds and dies at the collective's exit boundary.
		r.gateDropped = false
		killRank()
	}
	return g.result
}

// completeGate runs the gate's finisher and schedules every entrant's
// release. Releases are clamped to now: in the normal path the last
// arrival is now and every finisher releases at or after it, but gate
// repair (failNode) can complete a gate whose surviving entrants all
// arrived in the past.
func (w *World) completeGate(g *gate) {
	var release []sim.Time
	var end sim.Time
	if fin := g.call.fin; fin != nil {
		release, g.result = fin(g.ranks, g.times, g.vals)
	} else {
		end = g.uniformEnd()
	}
	now := w.now()
	for i, rr := range g.ranks {
		t := end
		if release != nil {
			t = release[i]
		}
		if t < now {
			t = now
		}
		if rr.sh != nil {
			// Sharded entrant: hand the result over directly (the gate
			// object is deleted before the rank resumes on its shard
			// kernel) and lift the shard's window cap.
			rr.gateResult = g.result
			rr.sh.blockedGates--
		}
		rr.proc.WakeAt(t)
	}
	w.closeGate(g)
}

// closeGate retires a completed or abandoned gate.
func (w *World) closeGate(g *gate) {
	g.closed = true
	delete(w.gates, g.call.key)
}

// uniformEnd is the uniform release: the last arrival plus the call's
// duration, computed exactly once, when the gate completes (so
// hardware-offload accounting counts one operation).
func (g *gate) uniformEnd() sim.Time {
	var last sim.Time
	for _, t := range g.times {
		if t > last {
			last = t
		}
	}
	c := g.call
	if c.al != nil {
		return last.Add(c.al.Dur(c.c, c.a))
	}
	return last.Add(collAnalytic(c.c, c.op, c.a))
}

// Split partitions the communicator by color, ordering each new
// communicator by (key, world rank). Every member must call Split; it
// is a collective operation. Ranks passing a negative color receive a
// nil communicator (MPI_UNDEFINED).
func (c *Comm) Split(r *Rank, color, key int) *Comm {
	gk := c.nextKey(r, kindSplit).String()
	type ck struct{ color, key, world int }
	fin := func(ranks []*Rank, times []sim.Time, vals []interface{}) ([]sim.Time, interface{}) {
		var last sim.Time
		for _, t := range times {
			if t > last {
				last = t
			}
		}
		// Group members by color.
		byColor := map[int][]ck{}
		for i, v := range vals {
			e := v.(ck)
			if e.color >= 0 {
				byColor[e.color] = append(byColor[e.color], ck{e.color, e.key, ranks[i].id})
			}
		}
		comms := map[int]*Comm{}
		colors := make([]int, 0, len(byColor))
		for col := range byColor {
			colors = append(colors, col)
		}
		sort.Ints(colors)
		for _, col := range colors {
			es := byColor[col]
			sort.Slice(es, func(i, j int) bool {
				if es[i].key != es[j].key {
					return es[i].key < es[j].key
				}
				return es[i].world < es[j].world
			})
			members := make([]int, len(es))
			for i, e := range es {
				members[i] = e.world
			}
			// Born after these failures: no back charge.
			nc := newComm(c.w, fmt.Sprintf("%s/%s:%d", c.name, gk, col), members, c.w.epoch)
			c.w.registerComm(nc)
			comms[col] = nc
		}
		// A split costs roughly one small allgather; charge a software
		// barrier's worth of time.
		d := c.w.analyticBarrier(c.Size())
		release := make([]sim.Time, len(times))
		for i := range release {
			release[i] = last.Add(d)
		}
		return release, comms
	}
	if r.pb != nil {
		probeSpan(r, gk, "split", true)
	}
	res := c.sync(r, &gateCall{c: c, key: gk, fin: fin}, ck{color, key, r.id})
	if r.pb != nil {
		probeSpan(r, gk, "split", false)
	}
	comms := res.(map[int]*Comm)
	if color < 0 {
		return nil
	}
	return comms[color]
}
