// Package network models the interconnects of the evaluated machines:
// the 3-D torus (with optional per-link contention), the BlueGene
// global collective tree, the global barrier/interrupt network, and
// the on-node shared-memory path.
//
// The torus contention model is a wormhole approximation: a message
// reserves every directed link on its dimension-ordered route for the
// message's serialization time, offset by the per-hop latency of the
// links before it. Messages that share links therefore queue behind
// each other, which is what makes the paper's process-mapping studies
// (Figure 2c/d) come out: poor mappings produce longer routes that
// share more links.
package network

import (
	"fmt"
	"math"

	"bgpsim/internal/fault"
	"bgpsim/internal/machine"
	"bgpsim/internal/obs"
	"bgpsim/internal/sim"
	"bgpsim/internal/topology"
)

// Fidelity selects the torus model.
type Fidelity int

const (
	// Analytic uses hop latency plus serialization time with no
	// shared state. It is fast and used for very large sweeps where
	// contention is not the object of study.
	Analytic Fidelity = iota
	// Contention tracks per-link busy times so that messages sharing
	// links queue. Use it for mapping and congestion studies.
	Contention
	// Packet simulates individual packets hopping link by link — the
	// highest-fidelity (and slowest) model; used to validate the
	// Contention approximation at small scale.
	Packet
)

// packetBytes is the torus packet size in Packet fidelity (the BG/P
// torus uses up to 256-byte packets).
const packetBytes = 256

// String names the fidelity.
func (f Fidelity) String() string {
	switch f {
	case Analytic:
		return "analytic"
	case Packet:
		return "packet"
	}
	return "contention"
}

// Stats accumulates traffic counters.
type Stats struct {
	Messages   int64
	Bytes      int64
	ShmMsgs    int64
	TreeOps    int64
	BarrierOps int64

	// Collective-recovery counters (zero on healthy runs). Recoveries
	// counts recovery epochs a communicator went through; TreeRebuilds
	// counts the subset where the hardware tree was reprogrammed around
	// dead leaves; HWFallbacks counts the subset where an interior-node
	// loss demoted hardware offloads to software torus algorithms.
	// RecoveryTime is the total simulated latency charged for recovery.
	Recoveries   int64
	TreeRebuilds int64
	HWFallbacks  int64
	RecoveryTime sim.Duration

	// Message-logging counters (zero unless the fault plan enables
	// log=sender). Orphans counts point-to-point operations cancelled
	// on a dead peer plus messages that became undeliverable with it.
	// Restarts counts user-level rank restarts (restart=ckpt);
	// Replays/ReplayBytes count logged messages re-delivered during
	// those restarts; ReplayTime is the simulated time spent
	// re-injecting them, a component of RestartTime, the total restart
	// latency charged (detection, reboot, checkpoint read-back, redone
	// work, replay).
	Orphans     int64
	Restarts    int64
	Replays     int64
	ReplayBytes int64
	ReplayTime  sim.Duration
	RestartTime sim.Duration

	// Collectives counts per-algorithm collective traffic, keyed by
	// the algorithm's full name ("allreduce/ring"). Ops counts
	// operation invocations; Messages/Bytes count the algorithm's
	// internal point-to-point traffic (zero for hardware offloads and
	// analytic collectives, which send no individual messages).
	Collectives map[string]CollStats
}

// CollStats is the traffic of one collective algorithm.
type CollStats struct {
	Ops      int64
	Messages int64
	Bytes    int64
}

// Net is the interconnect of one simulated machine partition.
type Net struct {
	mach   *machine.Machine
	torus  *topology.Torus
	tree   *topology.Tree
	fid    Fidelity
	faults *fault.Plan // nil or fault-free: the healthy fast path

	// Effective bandwidths, initialized from the machine catalog and
	// scaled down by SetLinkShare for jobs on fragmented (shared-link)
	// partitions. Every serialization in the package reads these, never
	// the machine fields directly.
	linkBW float64
	injBW  float64

	// varFac holds the per-node delivered-bandwidth factors of an
	// attached fault plan's link variability (SetFaults), nil when
	// variability is off. Immutable after SetFaults, so shard clones
	// share the slice.
	varFac []float64

	// Contention state, indexed by dense link index.
	linkFree []sim.Time
	injFree  []sim.Time      // per node injection channel
	ejFree   []sim.Time      // per node ejection channel
	shmFree  []sim.Time      // per node shared-memory channel
	routeBuf []topology.Link // scratch for routing (single-threaded kernel)

	probe obs.Probe // nil unless observability is on (SetProbe)

	stats Stats

	// collAlgo and collPend hold the CollMessage traffic of the latest
	// message's algorithm not yet folded into stats.Collectives
	// (flushColl): the messages of one collective arrive back to back,
	// on the sending ranks' stacks, and need no map update each.
	collAlgo string
	collPend CollStats
}

// New builds the interconnect for a machine over a torus.
func New(m *machine.Machine, t *topology.Torus, fid Fidelity) *Net {
	n := &Net{mach: m, torus: t, fid: fid, linkBW: m.TorusLinkBW, injBW: m.NICInjectBW}
	if m.HasTree {
		n.tree = topology.NewCollectiveTree(t.Dims.Nodes(), 3)
	}
	nodes := t.Dims.Nodes()
	if fid == Contention || fid == Packet {
		n.linkFree = make([]sim.Time, t.NumLinks())
		n.injFree = make([]sim.Time, nodes)
		n.ejFree = make([]sim.Time, nodes)
	}
	n.shmFree = make([]sim.Time, nodes)
	return n
}

// Torus returns the underlying torus.
func (n *Net) Torus() *topology.Torus { return n.torus }

// SetLinkShare scales the effective torus link bandwidth by the given
// factor in (0, 1]. The facility layer calls it for jobs on fragmented
// XT-style partitions (topology.Partition.LinkShare): a fraction of the
// job's route hops cross links carrying other jobs' traffic, so link
// serialization stretches accordingly. The NIC injection channel is
// private to the node and is not scaled. Share 1 restores the
// machine-catalog bandwidth exactly; isolated BlueGene partitions never
// call it.
func (n *Net) SetLinkShare(share float64) {
	if share <= 0 || share > 1 {
		panic(fmt.Sprintf("network: link share %g outside (0, 1]", share))
	}
	n.linkBW = n.mach.TorusLinkBW * share
}

// Stats returns a copy of the traffic counters.
func (n *Net) Stats() Stats {
	n.flushColl()
	s := n.stats
	if n.stats.Collectives != nil {
		s.Collectives = make(map[string]CollStats, len(n.stats.Collectives))
		for k, v := range n.stats.Collectives {
			s.Collectives[k] = v
		}
	}
	return s
}

// CollOp counts one invocation of the named collective algorithm
// (called once per operation by the MPI layer).
func (n *Net) CollOp(algo string) {
	if n.stats.Collectives == nil {
		n.stats.Collectives = make(map[string]CollStats)
	}
	cs := n.stats.Collectives[algo]
	cs.Ops++
	n.stats.Collectives[algo] = cs
}

// CollMessage attributes one collective-internal message to the named
// algorithm.
func (n *Net) CollMessage(algo string, bytes int) {
	if algo != n.collAlgo {
		n.flushColl()
		n.collAlgo = algo
	}
	n.collPend.Messages++
	n.collPend.Bytes += int64(bytes)
}

// flushColl folds the pending CollMessage traffic into the counters.
func (n *Net) flushColl() {
	if n.collPend == (CollStats{}) {
		return
	}
	if n.stats.Collectives == nil {
		n.stats.Collectives = make(map[string]CollStats)
	}
	cs := n.stats.Collectives[n.collAlgo]
	cs.Messages += n.collPend.Messages
	cs.Bytes += n.collPend.Bytes
	n.stats.Collectives[n.collAlgo] = cs
	n.collPend = CollStats{}
}

// RecordRecovery accounts one collective-recovery charge: the latency,
// whether the hardware tree was rebuilt around dead leaves, and whether
// hardware offloads were demoted to software torus algorithms (both
// false for a plain software membership agreement, e.g. on a
// sub-communicator or a machine without a tree).
func (n *Net) RecordRecovery(d sim.Duration, rebuilt, demoted bool) {
	n.stats.Recoveries++
	n.stats.RecoveryTime += d
	if rebuilt {
		n.stats.TreeRebuilds++
	}
	if demoted {
		n.stats.HWFallbacks++
	}
}

// RecordOrphan accounts one cancelled point-to-point operation or
// undeliverable message under sender-based logging without restart.
func (n *Net) RecordOrphan() { n.stats.Orphans++ }

// RecordRestart accounts one user-level rank restart: the total
// latency charged to the restarting rank, the replay component of it,
// and the logged messages replayed.
func (n *Net) RecordRestart(total, replay sim.Duration, msgs int, bytes int64) {
	n.stats.Restarts++
	n.stats.RestartTime += total
	n.stats.ReplayTime += replay
	n.stats.Replays += int64(msgs)
	n.stats.ReplayBytes += bytes
}

// ReplayCost prices re-injecting one logged message during a
// sender-based replay: the sender's software overhead plus the wire
// serialization at the effective injection bandwidth. Replay happens
// on an otherwise idle restarting node, so no contention applies at
// any fidelity — which also keeps the charge identical at every shard
// count.
func (n *Net) ReplayCost(bytes int) sim.Duration {
	effBW := math.Min(n.linkBW, n.injBW)
	return sim.Seconds(n.mach.SWLatency + float64(bytes)/effBW)
}

// TreeRecoverable reports whether the collective tree survives losing
// the given nodes (all dead nodes are leaves of the class-route tree).
// False when the partition has no tree, or when a dead node is interior
// and takes its subtree's path to the root with it.
func (n *Net) TreeRecoverable(dead []int) bool {
	return n.tree != nil && n.tree.Recoverable(dead)
}

// treeReprogramS is the control-system cost of rewriting one node's
// class-route registers during a tree rebuild (a service-card RAS
// action, far slower than the tree's own latency).
const treeReprogramS = 25e-6

// TreeRebuildCost returns the simulated latency of reprogramming the
// collective-tree class routes around the given number of newly dead
// nodes: a full-depth route flush plus a per-node register rewrite.
func (n *Net) TreeRebuildCost(dead int) sim.Duration {
	if n.tree == nil {
		return 0
	}
	return sim.Seconds(n.mach.TreeLat*float64(n.tree.Depth) + float64(dead)*treeReprogramS)
}

// Fidelity returns the active torus model.
func (n *Net) Fidelity() Fidelity { return n.fid }

// P2P computes the wire arrival time of a message of the given size
// injected at time now from srcNode to dstNode. MPI software overheads
// are NOT included here — the MPI layer adds them. Messages between
// placements on the same node use the shared-memory path.
//
// Under an active fault plan (SetFaults) the message routes around
// failed links and serializes slower over degraded ones; when the
// failed links partition src from dst, P2P returns a
// *topology.LinkDownError. Without a plan the error is always nil.
//
// P2P runs on the sending rank's coroutine stack, so its own frame
// holds only the healthy analytic model: the panic and the link-fault,
// packet and contention models are separate functions whose frames
// exist only while they run (see "rank stack budget" in
// docs/PERFORMANCE.md).
func (n *Net) P2P(now sim.Time, srcNode, dstNode, bytes int) (sim.Time, error) {
	if bytes < 0 {
		negativeSize(bytes)
	}
	n.stats.Messages++
	n.stats.Bytes += int64(bytes)
	if srcNode == dstNode {
		return n.shm(now, srcNode, bytes), nil
	}
	if n.faults.HasLinkFaults() {
		return n.p2pFaulty(now, srcNode, dstNode, bytes)
	}
	if n.fid != Analytic {
		// The stateful models reserve links along the route, routed here
		// so the routing frames sit beside the model's frame, not under
		// it.
		n.routeBuf = n.torus.AppendRoute(n.routeBuf[:0], srcNode, dstNode)
		if n.fid == Packet {
			return n.packetTransfer(now, srcNode, dstNode, bytes), nil
		}
		return n.contend(now, srcNode, dstNode, bytes), nil
	}
	hops := n.torus.Hops(srcNode, dstNode)
	hopLat := sim.Seconds(n.mach.TorusHopLat * float64(hops))
	effBW := math.Min(n.linkBW, n.injBW) * n.varFactor(srcNode, dstNode)
	return now.Add(hopLat + sim.Seconds(float64(bytes)/effBW)), nil
}

//go:noinline
func negativeSize(bytes int) {
	panic(fmt.Sprintf("network: negative message size %d", bytes))
}

// contend is the healthy contention model: the message reserves every
// link of its dimension-ordered route, in routeBuf (see the package
// comment).
func (n *Net) contend(now sim.Time, srcNode, dstNode, bytes int) sim.Time {
	hops := n.torus.Hops(srcNode, dstNode)
	hopLat := sim.Seconds(n.mach.TorusHopLat * float64(hops))
	q := n.varFactor(srcNode, dstNode)
	effBW := math.Min(n.linkBW, n.injBW) * q
	wire := sim.Seconds(float64(bytes) / effBW)

	route := n.routeBuf
	injSer := sim.Seconds(float64(bytes) / (n.injBW * q))
	linkSer := sim.Seconds(float64(bytes) / (n.linkBW * q))

	// Find the earliest departure such that the injection channel,
	// every link (offset by the head latency to reach it), and the
	// ejection channel are all free.
	depart := now
	if n.injFree[srcNode] > depart {
		depart = n.injFree[srcNode]
	}
	perHop := sim.Seconds(n.mach.TorusHopLat)
	for i, l := range route {
		off := sim.Duration(i) * perHop
		if need := n.linkFree[n.torus.LinkIndex(l)] - sim.Time(off); need > depart {
			depart = need
		}
	}
	if need := n.ejFree[dstNode] - sim.Time(hopLat); need > depart {
		depart = need
	}

	// Reserve the resources.
	n.injFree[srcNode] = depart.Add(injSer)
	for i, l := range route {
		off := sim.Duration(i) * perHop
		n.linkFree[n.torus.LinkIndex(l)] = depart.Add(off + linkSer)
	}
	arrival := depart.Add(hopLat + wire)
	n.ejFree[dstNode] = arrival
	if n.probe != nil {
		n.probeReserve(now, depart, srcNode, bytes, linkSer)
	}
	return arrival
}

// packetTransfer moves a message packet by packet along its
// dimension-ordered route: packet k enters link i when both the packet
// has cleared the previous link (virtual cut-through) and the link has
// finished the previous packet. This is exact per-link FIFO
// queueing — the reference against which the cheaper Contention
// approximation is validated. The route is in routeBuf.
func (n *Net) packetTransfer(now sim.Time, srcNode, dstNode, bytes int) sim.Time {
	route := n.routeBuf
	packets := (bytes + packetBytes - 1) / packetBytes
	if packets == 0 {
		packets = 1 // a header-only packet still traverses the route
	}
	q := n.varFactor(srcNode, dstNode)
	perHop := sim.Seconds(n.mach.TorusHopLat)
	linkSer := sim.Seconds(float64(packetBytes) / (n.linkBW * q))
	injSer := sim.Seconds(float64(packetBytes) / (n.injBW * q))
	lastBytes := bytes - (packets-1)*packetBytes
	if lastBytes <= 0 {
		lastBytes = packetBytes
	}

	var arrival sim.Time
	for k := 0; k < packets; k++ {
		ser := linkSer
		inj := injSer
		if k == packets-1 {
			ser = sim.Seconds(float64(lastBytes) / (n.linkBW * q))
			inj = sim.Seconds(float64(lastBytes) / (n.injBW * q))
		}
		// Injection.
		t := now
		if n.injFree[srcNode] > t {
			t = n.injFree[srcNode]
		}
		if n.probe != nil {
			pb := packetBytes
			if k == packets-1 {
				pb = lastBytes
			}
			n.probe.Inject(srcNode, t, t.Sub(now), pb)
		}
		t = t.Add(inj)
		n.injFree[srcNode] = t
		// Hop through each link.
		for _, l := range route {
			idx := n.torus.LinkIndex(l)
			if n.linkFree[idx] > t {
				t = n.linkFree[idx]
			}
			if n.probe != nil {
				pb := packetBytes
				if k == packets-1 {
					pb = lastBytes
				}
				n.probe.LinkBusy(idx, t, ser, pb)
			}
			t = t.Add(ser)
			n.linkFree[idx] = t
			t = t.Add(perHop)
		}
		// Ejection.
		if n.ejFree[dstNode] > t {
			t = n.ejFree[dstNode]
		}
		n.ejFree[dstNode] = t
		if t > arrival {
			arrival = t
		}
	}
	return arrival
}

// shm transfers a message over the node's shared-memory channel.
func (n *Net) shm(now sim.Time, node, bytes int) sim.Time {
	n.stats.ShmMsgs++
	start := now
	if n.shmFree[node] > start {
		start = n.shmFree[node]
	}
	done := start.Add(sim.Seconds(n.mach.ShmLatency + float64(bytes)/n.mach.ShmBW))
	n.shmFree[node] = done
	return done
}

// HasTree reports whether the machine has a hardware collective tree.
func (n *Net) HasTree() bool { return n.mach.HasTree }

// TreeBcast returns the duration of a hardware-tree broadcast of the
// given payload across the partition: the pipeline fill (tree depth
// times per-stage latency) plus payload streaming at tree bandwidth.
func (n *Net) TreeBcast(bytes int) sim.Duration {
	if !n.mach.HasTree {
		panic("network: TreeBcast on machine without collective tree")
	}
	n.stats.TreeOps++
	fill := n.mach.TreeLat * float64(n.tree.Depth)
	return sim.Seconds(fill + float64(bytes)/n.mach.TreeBW)
}

// TreeAllreduce returns the duration of a hardware-tree allreduce:
// an up-reduction to the root followed by a down-broadcast, each a
// pipelined traversal. The hardware ALU reduces at link rate.
func (n *Net) TreeAllreduce(bytes int) sim.Duration {
	if !n.mach.HasTree {
		panic("network: TreeAllreduce on machine without collective tree")
	}
	n.stats.TreeOps++
	fill := 2 * n.mach.TreeLat * float64(n.tree.Depth)
	return sim.Seconds(fill + 2*float64(bytes)/n.mach.TreeBW)
}

// HWReduceSupported reports whether the tree can reduce the given
// operand kind in hardware. The BlueGene tree ALU handles integers
// and, on BG/P, double precision; single precision falls back to
// software (this asymmetry is visible in the paper's Figure 3a/b).
func (n *Net) HWReduceSupported(doublePrecision bool) bool {
	return n.mach.HasTree && n.mach.TreeHWReduce && doublePrecision
}

// HasBarrierNet reports whether the machine has a global barrier network.
func (n *Net) HasBarrierNet() bool { return n.mach.HasBarrierNet }

// HWBarrier returns the latency of the global interrupt network barrier.
func (n *Net) HWBarrier() sim.Duration {
	if !n.mach.HasBarrierNet {
		panic("network: HWBarrier on machine without barrier network")
	}
	n.stats.BarrierOps++
	return sim.Seconds(n.mach.BarrierLat)
}

// BisectionBW returns the aggregate bandwidth across the torus
// bisection actually delivered to a job in bytes/second — the
// first-order limit for PTRANS-like all-to-all transposes. The
// machine's BisectionDerate accounts for allocator fragmentation (1.0
// on BlueGene's isolated partitions, lower on the Cray XT).
func (n *Net) BisectionBW() float64 {
	return float64(n.torus.BisectionLinks()) * n.linkBW * n.mach.BisectionDerate
}
