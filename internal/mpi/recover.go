package mpi

// Transparent collective recovery (fault.Plan.EnableRecovery): instead
// of aborting the run, a node kill removes the node's ranks from the
// job and subsequent collectives run over the surviving members, in the
// spirit of ULFM. The moving parts:
//
//   - Dead ranks unwind their processes at recovery boundaries (the
//     next compute block, point-to-point call, or collective) via a
//     rankKilled panic recovered in the per-rank wrapper (Rank.unwound). A
//     rank that dies in the middle of a software collective keeps
//     participating until the collective's end (r.collAlgo guards the
//     checks) so that survivors' in-flight rounds complete.
//   - Every collective in recovery mode passes through an agreement
//     gate: the last arriver's finisher fixes the authoritative live
//     membership and algorithm, so ranks entering on either side of a
//     death cannot disagree. Open gates are repaired at death time
//     (failNode) in sorted-key order for determinism.
//   - The hardware collective tree is rebuilt around dead leaves
//     (topology.Tree.Recoverable); a dead interior node demotes the
//     world's hardware offloads to software torus algorithms from the
//     registry. Recovery latency — failure detection plus either the
//     class-route reprogramming or a software membership agreement —
//     is charged once per communicator per failure epoch and surfaced
//     through network.Stats and obs "coll-recover" fault events.
//   - Point-to-point traffic addressed to a dead rank is NOT repaired
//     by recovery alone: a survivor waiting on a dead rank's message
//     deadlocks and the run returns *sim.DeadlockError naming the dead
//     ranks in its note, as documented on EnableRecovery. Adding
//     log=sender (replay.go) closes that gap: orphaned point-to-point
//     operations are cancelled with a typed *PeerLostError, or — with
//     restart=ckpt — node kills become priced user-level restarts with
//     sender-log replay and no rank leaves the job at all.

import (
	"fmt"
	"sort"
	"strconv"

	"bgpsim/internal/fault"
	"bgpsim/internal/sim"
)

// rankKilledPanic unwinds a dead rank's process; the Rank.unwound wrapper
// recovers it and records the rank as lost instead of failing the run.
type rankKilledPanic struct{}

// killRank unwinds the calling rank. Kept out of line so checkDead's
// callers only pay a two-field compare on the hot path.
//
//go:noinline
func killRank() { panic(rankKilledPanic{}) }

// checkDead unwinds the rank if it was killed and is at a recovery
// boundary (not inside a software collective, whose surviving peers
// need its remaining rounds).
func (r *Rank) checkDead() {
	if r.dead && r.collAlgo == "" {
		killRank()
	}
	if r.floor != 0 {
		r.applyFloor()
	}
}

// recoveryDetectS is the failure-detection latency charged at the start
// of every recovery epoch: the RAS heartbeat interval after which the
// control system declares a node dead and tells survivors.
const recoveryDetectS = 1e-3

// failNode is the recovery-mode counterpart of the fail-stop abort in
// scheduleNodeFaults: it marks the node's ranks dead, bumps the failure
// epoch, re-evaluates the hardware tree, repairs open collective gates,
// and unwinds victims that are safely unwindable right now. Victims
// that are running, sleeping, or inside a software collective unwind at
// their next recovery boundary (checkDead).
func (w *World) failNode(nf fault.NodeFault) {
	if w.restartP2P {
		// restart=ckpt: the kill is a priced user-level restart, not a
		// death — no epoch bump, no rank removal, no gate repair.
		w.restartNode(nf)
		return
	}
	var victims []*Rank
	for _, r := range w.ranks {
		if r.place.Node == nf.Node && !r.dead {
			victims = append(victims, r)
		}
	}
	if len(victims) == 0 {
		return
	}
	w.epoch++
	for _, v := range victims {
		v.dead = true
		w.deadRank[v.id] = true
		w.lost = append(w.lost, v.id)
		if w.cancelP2P {
			w.deadAt[v.id] = nf.At
		}
	}
	sort.Ints(w.lost)
	w.deadNodes = append(w.deadNodes, nf.Node)
	sort.Ints(w.deadNodes)
	w.treeOK = w.net.TreeRecoverable(w.deadNodes)
	if w.probe != nil {
		w.probe.Fault(nf.At, "node-kill", fmt.Sprintf(
			"node %d died, %d rank(s) lost, recovery epoch %d", nf.Node, len(victims), w.epoch))
	}

	// Repair open collective gates in deterministic order: drop dead
	// entrants (waking them so they unwind), shrink the entry quorum to
	// the comm's surviving membership, and complete any gate whose
	// survivors have all arrived.
	keys := make([]string, 0, len(w.gates))
	for k := range w.gates {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		g := w.gates[k]
		g.dropDead()
		g.need = g.call.c.liveSize()
		if len(g.ranks) >= g.need {
			if g.need > 0 {
				w.completeGate(g)
			} else {
				w.closeGate(g)
			}
		}
	}

	// Unwind victims blocked outside software collectives (gate waits,
	// point-to-point waits). Waking is safe only for blocked processes;
	// atResume's first-wins guard makes a wake racing an already
	// scheduled gate release or message completion harmless. WakeAt is
	// pinned to the fault time: in a serial run that IS the kernel's
	// now, and in a sharded run the victim's shard kernel may still sit
	// before it.
	for _, v := range victims {
		if v.proc.Blocked() && v.collAlgo == "" {
			v.proc.WakeAt(w.now())
		}
	}

	if w.cancelP2P {
		w.cancelOrphans(victims, nf.At)
	}
}

// dropDead removes dead entrants from the gate, waking each so it
// unwinds out of its collective wait.
func (g *gate) dropDead() {
	kept := 0
	for i, r := range g.ranks {
		if r.dead {
			r.gateDropped = true
			if r.sh != nil {
				// The dropped entrant will never see completeGate; lift
				// its shard's window cap here.
				r.sh.blockedGates--
			}
			r.proc.WakeAt(g.call.c.w.now())
			continue
		}
		if kept != i {
			g.ranks[kept] = r
			g.times[kept] = g.times[i]
			if g.vals != nil {
				g.vals[kept] = g.vals[i]
			}
		}
		kept++
	}
	g.ranks = g.ranks[:kept]
	g.times = g.times[:kept]
	if g.vals != nil {
		g.vals = g.vals[:kept]
	}
}

// liveSize returns the number of surviving members.
func (c *Comm) liveSize() int {
	if c.w.epoch == 0 {
		return len(c.members)
	}
	return c.liveComm().Size()
}

// liveComm returns the communicator restricted to surviving members:
// the comm itself while everyone lives, otherwise a derived comm named
// "<name>!<epoch>" (its own collective-key namespace) shared by all
// survivors. Cached per failure epoch.
func (c *Comm) liveComm() *Comm {
	w := c.w
	if w.epoch == 0 {
		return c
	}
	if c.liveCache != nil && c.liveEpoch == w.epoch {
		return c.liveCache
	}
	members := make([]int, 0, len(c.members))
	for _, m := range c.members {
		if !w.deadRank[m] {
			members = append(members, m)
		}
	}
	lc := c
	if len(members) != len(c.members) {
		lc = newComm(w, c.name+"!"+strconv.Itoa(w.epoch), members, w.epoch)
		w.registerComm(lc)
	}
	c.liveCache, c.liveEpoch = lc, w.epoch
	return lc
}

// collDecision is the authoritative outcome of a recovery-mode
// collective's agreement gate: the algorithm, the live communicator to
// run it on, and the remapped root.
type collDecision struct {
	algo     *CollAlgo
	lc       *Comm
	root     int
	software bool // run algo.Run after release (vs duration applied in the gate)
}

// chargeRecovery returns the recovery latency owed by the communicator
// for the current failure epoch (zero when already charged or no
// failure happened yet), recording it in the network stats and the obs
// fault stream. World-communicator recoveries on a surviving hardware
// tree pay the class-route rebuild; everything else pays a software
// membership agreement (two barriers). Both pay failure detection.
func (w *World) chargeRecovery(c *Comm, live int) sim.Duration {
	if c.recEpoch == w.epoch {
		return 0
	}
	c.recEpoch = w.epoch
	if w.epoch == 0 {
		return 0
	}
	d := sim.Seconds(recoveryDetectS)
	rebuilt := c.isWorld && w.treeOK && w.mach.HasTree
	demoted := c.isWorld && !w.treeOK && w.mach.HasTree
	if rebuilt {
		d += w.net.TreeRebuildCost(len(w.deadNodes))
	} else {
		d += 2 * w.analyticBarrier(live)
	}
	w.net.RecordRecovery(d, rebuilt, demoted)
	if w.probe != nil {
		what := "software membership agreement"
		if rebuilt {
			what = "hardware tree rebuild"
		} else if demoted {
			what = "software membership agreement (HW offload demoted)"
		}
		w.probe.Fault(w.now(), "coll-recover", fmt.Sprintf(
			"comm %q epoch %d: %s, %d survivor(s), +%v", c.name, w.epoch, what, live, d))
	}
	return d
}

// recoverFinisher builds the agreement-gate finisher for one
// recovery-mode collective: when the last surviving member arrives (or
// gate repair completes the quorum), it fixes the live membership and
// algorithm, charges any pending recovery latency, and either applies
// the whole duration in the release times (hardware offloads and
// analytic collectives) or releases everyone aligned to run the
// software algorithm's messages.
func (w *World) recoverFinisher(c *Comm, op opID, a CollArgs) finisher {
	return func(ranks []*Rank, times []sim.Time, _ []interface{}) ([]sim.Time, interface{}) {
		lc := c.liveComm()
		live := lc.Size()
		al := w.selectColl(op, c.isWorld && w.treeOK, live, a)
		dec := &collDecision{algo: al, lc: lc, root: remapRoot(c, lc, a.Root)}
		w.net.CollOp(al.full)
		d := w.chargeRecovery(c, live)
		switch {
		case al.HW:
			d += al.Dur(lc, a)
		case w.cfg.AnalyticCollectives:
			d += collAnalytic(lc, op, a)
		default:
			dec.software = true
		}
		var last sim.Time
		for _, t := range times {
			if t > last {
				last = t
			}
		}
		end := last.Add(d)
		release := make([]sim.Time, len(times))
		for i := range release {
			release[i] = end
		}
		return release, dec
	}
}

// remapRoot translates a rooted collective's root from c to lc. A dead
// root is replaced by live rank 0, which stands in (MPI itself leaves
// a collective with a failed root undefined; the stand-in keeps the
// simulated program runnable and is deterministic).
func remapRoot(c, lc *Comm, root int) int {
	if c == lc {
		return root
	}
	if root < 0 || root >= len(c.members) {
		return 0
	}
	if i, ok := lc.index[c.members[root]]; ok {
		return i
	}
	return 0
}

// runCollRecover is runColl's recovery-mode path: agreement gate, then
// (for software algorithms) the algorithm's messages over the agreed
// live membership. The probe spans carry the entering rank's
// provisional algorithm selection; the authoritative selection (which
// can differ only when a death lands between the first and last
// entrant) drives execution and the traffic counters.
func (c *Comm) runCollRecover(r *Rank, op opID, a CollArgs) {
	r.checkDead()
	w := c.w
	key := c.nextKey(r, op).String()
	label := w.selectColl(op, c.isWorld && w.treeOK, c.liveSize(), a).full
	if r.pb != nil {
		probeSpan(r, key, label, true)
	}
	dec, _ := c.sync(r, &gateCall{c: c, key: key, fin: w.recoverFinisher(c, op, a)}, nil).(*collDecision)
	if dec != nil && dec.software {
		a2 := a
		a2.Root = dec.root
		key2 := dec.lc.nextKey(r, op)
		prev := r.collAlgo
		r.collAlgo = dec.algo.full
		dec.algo.Run(dec.lc, r, key2, a2)
		r.collAlgo = prev
	}
	if r.pb != nil {
		probeSpan(r, key, label, false)
	}
	r.checkDead()
}

// agreeLive is the recovery-mode entry step for payload collectives:
// an agreement gate (same mechanism as runCollRecover) whose result is
// the live communicator to run on. Outside recovery mode it is free.
func (c *Comm) agreeLive(r *Rank, kind opID) *Comm {
	if !c.w.recovery {
		return c
	}
	r.checkDead()
	key := c.nextKey(r, kind).String()
	w := c.w
	fin := func(ranks []*Rank, times []sim.Time, _ []interface{}) ([]sim.Time, interface{}) {
		lc := c.liveComm()
		d := w.chargeRecovery(c, lc.Size())
		var last sim.Time
		for _, t := range times {
			if t > last {
				last = t
			}
		}
		end := last.Add(d)
		release := make([]sim.Time, len(times))
		for i := range release {
			release[i] = end
		}
		return release, lc
	}
	lc, _ := c.sync(r, &gateCall{c: c, key: key, fin: fin}, nil).(*Comm)
	if lc == nil {
		lc = c.liveComm()
	}
	return lc
}

// Lost returns the world ranks that have been killed so far, sorted.
func (w *World) Lost() []int {
	return append([]int(nil), w.lost...)
}
