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
	// communicator, by communicator rank (nextKey). Every member writes
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

// nextKey returns a unique key for the rank's next collective on this
// communicator. MPI requires all members to issue collectives in the
// same order, so the per-member sequence numbers agree. A rank that is
// not a member panics: it has no sequence, and its entry would corrupt
// the members' gate. Built by hand rather than with fmt: this runs once
// per rank per collective, and fmt's deep call stack forces a stack
// grow on every fresh rank coroutine.
func (c *Comm) nextKey(r *Rank, kind string) string {
	i := c.Rank(r)
	if i < 0 {
		panic(fmt.Sprintf("mpi: rank %d is not a member of communicator %q", r.id, c.name))
	}
	seq := c.seq[i]
	c.seq[i] = seq + 1
	b := make([]byte, 0, len(c.name)+len(kind)+8)
	b = append(b, c.name...)
	b = append(b, '#')
	b = strconv.AppendInt(b, int64(seq), 10)
	b = append(b, ':')
	b = append(b, kind...)
	return string(b)
}

// gate synchronizes the members of one collective operation. Ranks
// enter with a value; when the last member arrives, the finisher
// computes each member's release time (and optionally a shared
// result), and everyone resumes at their release time. Each member
// enters once: its collective key carries its own sequence number on
// the communicator (nextKey).
type gate struct {
	c      *Comm
	fin    finisher
	need   int
	ranks  []*Rank
	times  []sim.Time
	vals   []interface{}
	result interface{}
}

// newGate opens a gate on c whose entry slices are sized for its
// quorum, the communicator's live membership.
func newGate(c *Comm, fin finisher) *gate {
	need := c.liveSize()
	return &gate{
		c:     c,
		fin:   fin,
		need:  need,
		ranks: make([]*Rank, 0, need),
		times: make([]sim.Time, 0, need),
		vals:  make([]interface{}, 0, need),
	}
}

// enter adds one member's arrival and completes the gate when the
// quorum is reached.
func (g *gate) enter(key string, r *Rank, t sim.Time, val interface{}) {
	g.ranks = append(g.ranks, r)
	g.times = append(g.times, t)
	g.vals = append(g.vals, val)
	if len(g.ranks) == g.need {
		g.c.w.completeGate(key, g)
	}
}

// finisher computes per-entry release times given the entry times. It
// may also return a shared result value.
type finisher func(ranks []*Rank, times []sim.Time, vals []interface{}) (release []sim.Time, result interface{})

// sync enters the calling rank into the gate for the given collective
// key and blocks until released. It returns the finisher's shared
// result.
func (c *Comm) sync(r *Rank, key string, val interface{}, fin finisher) interface{} {
	if r.sh != nil {
		return c.syncShard(r, key, val, fin)
	}
	g, ok := c.w.gates[key]
	if !ok {
		g = newGate(c, fin)
		c.w.gates[key] = g
	}
	g.enter(key, r, r.proc.Now(), val)
	r.proc.BlockWith("collective ", key)
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
func (w *World) completeGate(key string, g *gate) {
	release, result := g.fin(g.ranks, g.times, g.vals)
	g.result = result
	now := w.now()
	for i, rr := range g.ranks {
		t := release[i]
		if t < now {
			t = now
		}
		if rr.sh != nil {
			// Sharded entrant: hand the result over directly (the gate
			// object is deleted before the rank resumes on its shard
			// kernel) and lift the shard's window cap.
			rr.gateResult = result
			rr.sh.blockedGates--
		}
		rr.proc.WakeAt(t)
	}
	delete(w.gates, key)
}

// uniformFinisher releases every member at last-arrival + d(). The
// duration is computed lazily, exactly once, when the last member
// arrives (so hardware-offload accounting counts one operation).
func uniformFinisher(d func() sim.Duration) finisher {
	return func(ranks []*Rank, times []sim.Time, _ []interface{}) ([]sim.Time, interface{}) {
		var last sim.Time
		for _, t := range times {
			if t > last {
				last = t
			}
		}
		release := make([]sim.Time, len(times))
		end := last.Add(d())
		for i := range release {
			release[i] = end
		}
		return release, nil
	}
}

// Split partitions the communicator by color, ordering each new
// communicator by (key, world rank). Every member must call Split; it
// is a collective operation. Ranks passing a negative color receive a
// nil communicator (MPI_UNDEFINED).
func (c *Comm) Split(r *Rank, color, key int) *Comm {
	gk := c.nextKey(r, "split")
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
		probeColl(r, gk, "split", true)
	}
	res := c.sync(r, gk, ck{color, key, r.id}, fin)
	if r.pb != nil {
		probeColl(r, gk, "split", false)
	}
	comms := res.(map[int]*Comm)
	if color < 0 {
		return nil
	}
	return comms[color]
}
