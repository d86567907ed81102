// Package obs is the simulator's observability layer: a probe
// interface the simulation layers (sim, network, mpi, fault) call
// through a single pre-resolved hook, a Recorder that turns the probe
// stream into derived views — per-rank timelines with compute /
// p2p-wait / collective-wait / noise buckets, time-bucketed link
// utilization and injection-queue telemetry, and a critical-path walk
// over the matched message and collective dependency graph — and
// exporters for those views: Chrome trace_event JSON (loadable in
// chrome://tracing or Perfetto), plain-text profile tables, and CSV
// link heatmaps.
//
// Overhead policy: a nil probe is the contract. Every call site in the
// hot path guards with a single pointer nil-check and calls through a
// non-inlined helper, so a run with no probe attached executes the
// pre-observability instruction stream — goldens stay byte-identical
// and the kernel benchmarks stay flat. With a probe attached the
// recording cost is paid in host time only; probe hooks never advance
// virtual time, so an instrumented run produces exactly the timings of
// an uninstrumented one.
package obs

import (
	"bgpsim/internal/sim"
)

// Probe receives simulation events as they happen. All hooks are
// called from the simulation kernel's single-threaded event loop, in
// deterministic order; implementations need no locking but must not
// block. The rank argument is the world rank id, or negative for
// processes that are not MPI ranks.
//
// Probe is a superset of sim.Probe: any Probe can be installed as the
// kernel's process-block hook directly.
type Probe interface {
	// ProcBlock fires when a rank suspends waiting on a condition.
	// reason+detail name the wait ("MPI_Wait(recv)", "collective
	// <key>"); they arrive unjoined so the hot path never concatenates.
	ProcBlock(rank int, reason, detail string, t sim.Time)
	// ProcUnblock fires when a blocked rank resumes.
	ProcUnblock(rank int, t sim.Time)

	// Compute fires at the start of a compute block: the block spans
	// [start, start+d), of which noise was added by OS-noise injection
	// (zero on quiet machines).
	Compute(rank int, start sim.Time, d, noise sim.Duration)

	// Send fires when a rank injects a message (after the sender-side
	// software overhead). coll marks collective-internal traffic.
	Send(rank int, t sim.Time, peer, bytes, tag int, coll bool)
	// RecvPost fires when a rank posts a receive for (src, tag); either
	// may be a wildcard (-1).
	RecvPost(rank int, t sim.Time, src, tag int)
	// Match fires when a receive pairs with a message from peer that
	// was sent at sendT with the given tag.
	Match(rank int, t sim.Time, peer int, sendT sim.Time, bytes, tag int, coll bool)

	// CollEnter/CollExit bracket one rank's participation in one
	// collective operation; key is the operation's matching key and
	// algo the selected algorithm ("allreduce/ring").
	CollEnter(rank int, t sim.Time, key, algo string)
	CollExit(rank int, t sim.Time, key, algo string)

	// LinkBusy fires when the network reserves a torus link: the link
	// serializes this message's bytes over [start, start+busy).
	LinkBusy(link int, start sim.Time, busy sim.Duration, bytes int)
	// Inject fires when a node's injection channel accepts a message
	// after queueing for wait.
	Inject(node int, t sim.Time, wait sim.Duration, bytes int)

	// Fault fires when an injected fault becomes visible. Kinds in
	// use: "link-degraded"/"link-down" (a link-fault window opens),
	// "node-kill" (a node dies — fail-stop abort, or rank loss under
	// recovery), and "coll-recover" (a communicator rebuilt its
	// collective machinery around dead ranks, with the tree-rebuild /
	// HW-demotion detail and the charged recovery time).
	Fault(t sim.Time, kind, detail string)
	// RankFault marks a fault-layer action on one rank's timeline:
	// "rank-restart" (a user-level restart; peer -1), "p2p-replay" (one
	// logged message from peer replayed into the restarting rank), or
	// "p2p-orphan" (an operation with peer cancelled because the peer
	// died). bytes is the payload size where one applies.
	RankFault(rank int, t sim.Time, kind string, peer, bytes int)

	// RankDone fires when a rank's program function returns.
	RankDone(rank int, t sim.Time)
}

// SegKind classifies a timeline segment.
type SegKind uint8

// Timeline segment kinds.
const (
	// SegCompute is modelled computation (including injected
	// slowdown; the OS-noise share is tracked separately).
	SegCompute SegKind = iota
	// SegP2PWait is time blocked in point-to-point completion outside
	// any collective.
	SegP2PWait
	// SegCollWait is time blocked inside a collective: the gate sync
	// of a hardware offload or the internal sends/receives of a
	// software algorithm.
	SegCollWait
)

// String names the segment kind as the exporters print it.
func (k SegKind) String() string {
	switch k {
	case SegCompute:
		return "compute"
	case SegP2PWait:
		return "p2p-wait"
	case SegCollWait:
		return "coll-wait"
	}
	return "segment?"
}

// Segment is one interval of a rank's timeline.
type Segment struct {
	Kind  SegKind
	Start sim.Time
	End   sim.Time

	// Peer is the world rank whose message released a p2p wait (-1
	// when unknown), and SendT when that message was sent — the edge
	// the critical-path walk follows.
	Peer  int
	SendT sim.Time

	// Key is the collective matching key for gate waits.
	Key string
}

// CollSpan is one rank's participation in one collective.
type CollSpan struct {
	Key   string
	Algo  string
	Enter sim.Time
	Exit  sim.Time
}
