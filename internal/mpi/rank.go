package mpi

import (
	"fmt"

	"bgpsim/internal/machine"
	"bgpsim/internal/network"
	"bgpsim/internal/obs"
	"bgpsim/internal/sim"
	"bgpsim/internal/topology"
)

// Wildcards for receive matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// Rank is one MPI task of a simulated program. All methods must be
// called from within the rank's own program function.
type Rank struct {
	w     *World
	id    int
	place topology.Placement
	proc  *sim.Proc

	// Execution context. In a serial run these alias the World's
	// kernel, net, and rank-event probe; in a sharded run each rank
	// points at its shard's private copies, so the p2p and collective
	// hot paths never need to know which mode they run in. pb receives
	// the rank-event hooks (World.pb); the timeline hooks Compute and
	// RankDone go to it only when the kernel's probe is on, so a
	// trace-only run never pays for them.
	k   *sim.Kernel
	net *network.Net
	pb  obs.Probe
	sh  *shard // nil in a serial run

	inbox  []*message // arrived eager data / rendezvous headers, unmatched
	posted []*Request // posted receives, unmatched

	// postedBuf backs posted until a rank has more than two receives
	// outstanding, so posting the usual one or two receives of an
	// exchange never allocates on the rank's stack.
	postedBuf [2]*Request

	// Peak lengths of inbox and posted, for the per-rank memory model.
	peakInbox  int
	peakPosted int

	collAlgo    string      // active software collective ("op/name"), for traffic attribution
	dead        bool        // killed under transparent recovery; unwinds at next boundary
	gateDropped bool        // removed from an open collective gate by failNode
	logSend     bool        // sender-based message logging on (replay.go): one bool on the isend path
	gateResult  interface{} // sharded-gate result handoff, set by completeGate
	rng         sim.RNG
	noisePhase  sim.Duration // phase of this node's OS-noise events
	clockFac    float64      // per-node variability clock multiplier (0 = off)

	// floor, when nonzero, is a pending user-level-restart charge
	// applied at the rank's next boundary (applyFloor, replay.go).
	floor sim.Time

	// cold holds the timer, message-log and fault state most ranks
	// never touch; it is allocated on first write (coldState). The rank
	// record is paid once per rank, 163,840 times in a full-machine run.
	cold *rankCold
}

// rankCold is a rank's rarely used state: named timers, the sender
// message log and last checkpoint commit (replay.go), and a cancelled
// point-to-point wait.
type rankCold struct {
	timers          map[string]sim.Duration
	timerStart      map[string]sim.Time
	sentLog         []logEnv
	lastCommitAt    sim.Time
	lastCommitBytes float64
	peerLost        *PeerLostError // set when a p2p wait was cancelled on a dead peer
}

// noCold is the all-zero cold state read for ranks that never wrote
// one. It is never written.
var noCold rankCold

// coldState returns the rank's cold state for writing, allocating it
// on first use.
func (r *Rank) coldState() *rankCold {
	if r.cold == nil {
		r.cold = new(rankCold)
	}
	return r.cold
}

// coldView returns the rank's cold state for reading: the zero state
// when the rank never wrote one.
func (r *Rank) coldView() *rankCold {
	if r.cold == nil {
		return &noCold
	}
	return r.cold
}

func newRank(w *World, id int, place topology.Placement) *Rank {
	r := &Rank{
		w:     w,
		id:    id,
		place: place,
		k:     w.kernel,
		net:   w.net,
		pb:    w.pb,
		rng:   *sim.NewRNG(w.cfg.Seed ^ (uint64(id)+1)*0x9e3779b97f4a7c15),
	}
	r.posted = r.postedBuf[:0]
	if w.noiseOn {
		r.noisePhase = w.cfg.Faults.NoisePhase(place.Node, w.noise.Period)
	}
	if v := w.cfg.Faults.Variability(); v != nil {
		if f := v.ClockFactor(place.Node); f > 1 {
			r.clockFac = f
		}
	}
	r.logSend = w.cfg.Faults.LogSender()
	return r
}

// ID returns the rank's number in the world communicator.
func (r *Rank) ID() int { return r.id }

// Size returns the world communicator size.
func (r *Rank) Size() int { return len(r.w.ranks) }

// Node returns the torus node index the rank runs on.
func (r *Rank) Node() int { return r.place.Node }

// Core returns the core slot within the node.
func (r *Rank) Core() int { return r.place.Core }

// World returns the world communicator.
func (r *Rank) World() *Comm { return r.w.world }

// Now returns the rank's current virtual time.
func (r *Rank) Now() sim.Time { return r.proc.Now() }

// Elapsed returns the virtual time since simulation start.
func (r *Rank) Elapsed() sim.Duration { return sim.Duration(r.proc.Now()) }

// RNG returns the rank's private deterministic random source.
func (r *Rank) RNG() *sim.RNG { return &r.rng }

// Compute advances the rank's clock by the roofline time of a compute
// block (flops of the given kernel class touching bytes of memory),
// including any injected slowdown for the rank's node and, under an
// active fault plan with OS noise, the deterministic noise events that
// land inside the block.
func (r *Rank) Compute(flops, bytes float64, class machine.KernelClass) {
	if r.dead && r.collAlgo == "" {
		killRank()
	}
	if r.floor != 0 {
		r.applyFloor()
	}
	d := r.w.cpu.Time(flops, bytes, class)
	if s, ok := r.w.cfg.NodeSlowdown[r.place.Node]; ok && s > 0 {
		d = sim.Duration(float64(d) * (1 + s))
	}
	if r.clockFac > 1 {
		d = sim.Duration(float64(d) * r.clockFac)
	}
	base := d
	if r.w.noiseOn {
		d = r.w.noise.Extend(r.proc.Now(), d, r.noisePhase)
	}
	if r.k.Probe != nil {
		probeCompute(r, d, d-base)
	}
	r.proc.Sleep(d)
}

// probeCompute is kept out of Compute so the probe's interface-call
// spill slots don't widen the frame of every compute block (the same
// stack discipline as probeColl).
//
//go:noinline
func probeCompute(r *Rank, d, noise sim.Duration) {
	r.pb.Compute(r.id, r.proc.Now(), d, noise)
}

// Advance moves the rank's clock forward by a fixed duration
// (pre-computed cost, e.g. from a closed-form model).
func (r *Rank) Advance(d sim.Duration) {
	if r.dead && r.collAlgo == "" {
		killRank()
	}
	if r.floor != 0 {
		r.applyFloor()
	}
	r.proc.Sleep(d)
}

// TimerStart begins (or resumes) the named per-rank timer.
func (r *Rank) TimerStart(name string) {
	c := r.coldState()
	if c.timerStart == nil {
		c.timerStart = make(map[string]sim.Time)
	}
	c.timerStart[name] = r.proc.Now()
}

// TimerStop stops the named timer and accumulates the elapsed span.
// Stopping a timer that is not running panics (it is a model bug).
func (r *Rank) TimerStop(name string) {
	c := r.coldView()
	start, ok := c.timerStart[name]
	if !ok {
		panic(fmt.Sprintf("mpi: timer %q stopped but not started", name))
	}
	delete(c.timerStart, name)
	if c.timers == nil {
		c.timers = make(map[string]sim.Duration)
	}
	c.timers[name] += r.proc.Now().Sub(start)
}
