// Package mpi implements a message-passing programming model on top of
// the simulation kernel: ranks written as ordinary blocking Go
// functions, point-to-point operations with eager and rendezvous
// protocols, tag matching, communicators, and collective operations
// with per-machine algorithm selection (including the BlueGene
// hardware collective-tree offload).
package mpi

import (
	"fmt"

	"bgpsim/internal/cpu"
	"bgpsim/internal/fault"
	"bgpsim/internal/machine"
	"bgpsim/internal/network"
	"bgpsim/internal/obs"
	"bgpsim/internal/sim"
	"bgpsim/internal/topology"
	"bgpsim/internal/trace"
)

// Config describes a simulated machine partition and run options.
type Config struct {
	Machine *machine.Machine
	Nodes   int // compute nodes in the partition
	Mode    machine.Mode
	Mapping topology.Mapping // defaults to XYZT
	Dims    topology.Dims    // optional torus shape override (zero = derive from Nodes)

	// Partition, when non-nil, scopes the world to a job-sized view of
	// a larger machine (the facility layer's allocation): Nodes and
	// Dims default to the partition's size and view shape (explicit
	// values must agree), and fragmented (non-isolated) partitions
	// derate the torus link bandwidth by the partition's LinkShare —
	// the XT shared-links effect. Node indices elsewhere in the config
	// (NodeSlowdown, fault plans) remain partition-local: local node i
	// is Partition.Nodes[i] on the parent machine.
	Partition *topology.Partition

	// Ranks optionally runs fewer MPI tasks than the partition's
	// capacity (Nodes * ranks-per-node). Zero means full capacity.
	Ranks int

	Fidelity network.Fidelity

	// AnalyticCollectives replaces message-by-message collective
	// simulation with closed-form durations. Use for very large rank
	// counts where per-message simulation is too slow and collective
	// internals are not the object of study.
	AnalyticCollectives bool

	// Coll overrides the machine's collective-algorithm selection table
	// per op, e.g. {"allreduce": "ring"}. An override that is
	// ineligible for a particular call (a hardware offload on a
	// sub-communicator, say) falls back to the table for that call.
	// See CollOps/CollAlgos for the valid names.
	Coll map[string]string

	Seed       uint64
	EventLimit uint64 // safety cap on simulation events (0 = none)

	// Shards splits the simulation across that many event loops running
	// on concurrent goroutines, synchronized by a conservative
	// time-window protocol (shard.go). Ranks are partitioned into
	// contiguous torus-node slabs; results are byte-identical at any
	// count N >= 1. Zero runs the serial kernel, which breaks
	// same-timestamp ties by another rule, so its results can differ
	// (sim.Kernel.Keyed). Only the analytic fidelity without link
	// faults can shard (the contention and packet models share per-link
	// state); other configurations silently run serial — Result.Shards
	// reports what actually ran.
	Shards int

	// Trace, when non-nil, records message and collective events. It
	// is fed from the same probe stream as Probe: only the rank-event
	// hooks, never the kernel, network, or timeline hooks.
	Trace *trace.Buffer

	// Probe, when non-nil, streams observability events — per-rank
	// compute/wait transitions, send/match edges, collective spans,
	// link reservations, injection-queue waits, fault activations — to
	// the obs layer (usually an *obs.Recorder). A nil Probe runs the
	// uninstrumented fast path byte for byte; probes observe the run
	// and never advance virtual time.
	Probe obs.Probe

	// NodeSlowdown injects per-node compute derating (keyed by torus
	// node index): a factor of 0.1 makes every compute block on that
	// node 10% slower. It models OS interference, thermal throttling
	// or a sick node — the classic "one slow node stalls the
	// collective" experiment.
	NodeSlowdown map[int]float64

	// Faults, when non-nil, injects the plan's link faults (degraded
	// and failed links, rerouted or surfaced as errors), node kills
	// (surfaced as *RankFailure), and OS noise (deterministic
	// compute-block stretching). Nil reproduces the healthy machine
	// byte for byte.
	Faults *fault.Plan

	// RestartRead, when non-nil, prices reading a rank's last committed
	// checkpoint back during a user-level restart (fault plans with
	// restart=ckpt): it is called with the restart time, the restarting
	// torus node, and the committed byte count, and returns the read
	// duration. internal/ckpt wires its stateful I/O model in here; nil
	// charges a flat stream at a default bandwidth (replay.go).
	RestartRead func(at sim.Time, node int, bytes float64) sim.Duration

	// RestartReboot overrides the reboot-and-relaunch time charged per
	// user-level restart. Zero uses the built-in default (replay.go).
	RestartReboot sim.Duration

	// JobSpec is an opaque canonical job description attached by the
	// jobspec layer (internal/jobspec, bgpsim.NewSystemFromSpec). The
	// mpi layer never inspects it; it is carried unchanged to
	// Result.Spec so a run can report exactly which job produced it.
	JobSpec any
}

// World is a configured partition ready to execute one program.
type World struct {
	cfg    Config
	mach   *machine.Machine
	kernel *sim.Kernel
	torus  *topology.Torus
	mapper *topology.Mapper
	net    *network.Net
	cpu    *cpu.Model
	ranks  []*Rank
	world  *Comm

	noise   fault.NoiseProfile // active OS-noise profile
	noiseOn bool

	// probe receives the full observability stream (Config.Probe);
	// pb receives the rank-event hooks — Send, RecvPost, Match,
	// CollEnter/CollExit, RankFault — for both consumers,
	// obs.Tee(Config.Probe, Config.Trace). In a sharded run both point
	// at the coordinator's log while the coordinator loop runs.
	probe obs.Probe
	pb    obs.Probe

	// Pre-resolved collective dispatch tables (buildCollTables).
	collRules [numCollOps][]collRule
	collOver  [numCollOps]*CollAlgo

	// Collective-recovery state (recover.go). epoch counts failure
	// events; treeOK tracks whether the hardware collective tree is
	// still usable around the dead nodes.
	recovery  bool
	epoch     int
	treeOK    bool
	deadRank  map[int]bool
	deadNodes []int
	lost      []int // dead world ranks, sorted

	// Message-logging / replay state (replay.go). Exactly one of
	// cancelP2P and restartP2P can be set: log=sender alone cancels
	// orphaned point-to-point traffic at detection time; with
	// restart=ckpt, node kills become priced user-level restarts and no
	// rank leaves the job. deadAt (cancel mode) records each dead
	// rank's death time for the detection charge; restarts counts
	// restartNode invocations.
	cancelP2P  bool
	restartP2P bool
	deadAt     map[int]sim.Time
	restarts   int

	gates map[string]*gate
	ran   bool

	// lastCall is the serial kernel's shared gate record of the latest
	// collective (Comm.uniformCall); sharded ranks use their shard's.
	lastCall *gateCall

	// recs is the serial kernel's free lists of message records;
	// sharded ranks use their shard's.
	recs records

	// program is the rank body of the run and finish each rank's
	// finish time, set when the ranks are spawned (spawnRanks).
	program func(*Rank)
	finish  []sim.Duration

	// Sharded-execution state (shard.go). sharded is true once Begin
	// has set the run up on shard kernels; vnow is the coordinator's
	// virtual time (what w.now() reports during barrier-side work);
	// allComms registers every communicator so the coordinator can
	// refresh live-membership caches after a node failure before shards
	// run concurrently again.
	sharded     bool
	shards      []*shard
	vnow        sim.Time
	coordEvents uint64
	allComms    []*Comm
	coordLog    *obs.ShardLog
}

// now returns the current virtual time: the kernel clock in serial
// runs, the coordinator's virtual time in sharded runs (where
// barrier-side work — gate completion, fault processing — happens
// between shard windows, off any kernel's clock).
func (w *World) now() sim.Time {
	if w.sharded {
		return w.vnow
	}
	return w.kernel.Now()
}

// registerComm records a communicator for the sharded coordinator's
// live-membership refresh. In sharded mode with failures already
// applied, the new comm's live cache is warmed immediately so rank-side
// reads never allocate it concurrently.
func (w *World) registerComm(c *Comm) {
	w.allComms = append(w.allComms, c)
	if w.sharded && w.epoch > 0 {
		c.liveComm()
	}
}

// NewWorld validates the configuration and builds the partition.
func NewWorld(cfg Config) (*World, error) {
	if cfg.Machine == nil {
		return nil, fmt.Errorf("mpi: no machine configured")
	}
	if p := cfg.Partition; p != nil {
		if cfg.Nodes == 0 {
			cfg.Nodes = p.Size()
		} else if cfg.Nodes != p.Size() {
			return nil, fmt.Errorf("mpi: config says %d nodes but partition holds %d", cfg.Nodes, p.Size())
		}
		if cfg.Dims.Nodes() == 0 || cfg.Dims[0] == 0 {
			cfg.Dims = p.ViewDims()
		}
	}
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("mpi: node count %d must be positive", cfg.Nodes)
	}
	if !cfg.Machine.SupportsMode(cfg.Mode) {
		return nil, fmt.Errorf("mpi: %s does not support %s mode", cfg.Machine.Name, cfg.Mode)
	}
	if cfg.Mapping == "" {
		cfg.Mapping = topology.MapXYZT
	}
	if !cfg.Mapping.Valid() {
		return nil, fmt.Errorf("mpi: invalid mapping %q", cfg.Mapping)
	}
	dims := cfg.Dims
	if dims.Nodes() == 0 || dims[0] == 0 {
		dims = topology.DimsForNodes(cfg.Nodes)
	}
	if dims.Nodes() != cfg.Nodes {
		return nil, fmt.Errorf("mpi: dims %v hold %d nodes, config says %d", dims, dims.Nodes(), cfg.Nodes)
	}
	for op, name := range cfg.Coll {
		if _, ok := opIndex(op); !ok {
			return nil, fmt.Errorf("mpi: collective override for unknown op %q (valid: %v)", op, CollOps())
		}
		if collRegistry[algoKey{op, name}] == nil {
			return nil, fmt.Errorf("mpi: unknown %s algorithm %q (valid: %v)", op, name, CollAlgos(op))
		}
	}
	rpn := cfg.Machine.RanksPerNode(cfg.Mode)
	capacity := cfg.Nodes * rpn
	nranks := cfg.Ranks
	if nranks == 0 {
		nranks = capacity
	}
	if nranks < 1 || nranks > capacity {
		return nil, fmt.Errorf("mpi: %d ranks exceed capacity %d (%d nodes x %d/node)",
			nranks, capacity, cfg.Nodes, rpn)
	}
	if nranks > MaxRanks {
		return nil, fmt.Errorf("mpi: %d ranks exceed the simulator's limit of %d", nranks, MaxRanks)
	}

	w := &World{
		cfg:    cfg,
		mach:   cfg.Machine,
		kernel: sim.NewKernel(),
		torus:  topology.NewTorus(dims),
		gates:  make(map[string]*gate),
	}
	w.kernel.EventLimit = cfg.EventLimit
	w.mapper = topology.NewMapper(w.torus, rpn, cfg.Mapping)
	w.net = network.New(cfg.Machine, w.torus, cfg.Fidelity)
	if p := cfg.Partition; p != nil && !p.Isolated {
		if share := p.LinkShare(); share < 1 {
			w.net.SetLinkShare(share)
		}
	}
	w.cpu = cpu.New(cfg.Machine, cfg.Mode)
	if cfg.Faults != nil {
		if err := w.validateFaults(cfg.Faults, cfg.Nodes); err != nil {
			return nil, err
		}
		w.net.SetFaults(cfg.Faults)
		if cfg.Faults.Recover() {
			w.recovery = true
			w.deadRank = make(map[int]bool)
			if cfg.Faults.LogSender() {
				if cfg.Faults.RestartCkpt() {
					w.restartP2P = true
				} else {
					w.cancelP2P = true
					w.deadAt = make(map[int]sim.Time)
				}
			}
		}
	}
	w.treeOK = true
	if cfg.Probe != nil {
		w.probe = cfg.Probe
		w.kernel.Probe = cfg.Probe // obs.Probe supersets sim.Probe
		w.net.SetProbe(cfg.Probe)
	}
	w.pb = cfg.Probe
	if cfg.Trace != nil { // a nil *trace.Buffer must not become a non-nil Probe
		w.pb = obs.Tee(cfg.Probe, cfg.Trace)
	}

	w.ranks = make([]*Rank, nranks)
	members := make([]int, nranks)
	for i := range w.ranks {
		w.ranks[i] = newRank(w, i, w.mapper.Place(i))
		members[i] = i
	}
	w.world = &Comm{w: w, members: members, isWorld: true, seq: make([]int, nranks)}
	w.registerComm(w.world)
	w.buildCollTables()
	return w, nil
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Net returns the interconnect (for inspection in tests and reports).
func (w *World) Net() *network.Net { return w.net }

// CPU returns the per-rank compute model.
func (w *World) CPU() *cpu.Model { return w.cpu }

// Machine returns the machine model.
func (w *World) Machine() *machine.Machine { return w.mach }

// Config returns the world's configuration.
func (w *World) Config() Config { return w.cfg }

// Result summarizes one program execution.
type Result struct {
	// Elapsed is the virtual time when the last rank finished.
	Elapsed sim.Duration
	// RankElapsed is each rank's finish time.
	RankElapsed []sim.Duration
	// Timers holds, per timer name, each rank's accumulated duration.
	Timers map[string][]sim.Duration
	// Net holds the interconnect traffic counters.
	Net network.Stats
	// Events is the number of simulation events fired.
	Events uint64
	// Dropped is the number of trace events the Config.Trace buffer
	// discarded because it filled (zero without a trace buffer).
	Dropped int64
	// Probe is the run's Config.Probe (nil when observability is off).
	// Use Recorder/Profile/CriticalPath for the standard views.
	Probe obs.Probe
	// Lost lists the world ranks killed by fault injection under
	// transparent recovery, sorted (empty on healthy or fail-stop
	// runs). A lost rank's RankElapsed entry is when it unwound.
	Lost []int
	// PeerLost lists, in rank order, the surviving ranks whose plain
	// (error-unaware) point-to-point waits were cancelled on a dead
	// peer under a fault plan with log=sender; each entry carries the
	// peer and the cancellation time. Programs using WaitErr/RecvErr
	// handle the error themselves and do not appear here.
	PeerLost []*PeerLostError
	// Shards is the number of event loops the run actually used: the
	// effective shard count after eligibility clamping (1 for serial
	// runs and for configurations that cannot shard).
	Shards int
	// PeakRankState is the modeled peak per-rank state footprint in
	// bytes: the fixed rank record plus the deepest simultaneous
	// unmatched-message and posted-receive queues any rank reached. It
	// is a deterministic model quantity (not a host heap measurement),
	// so it is identical at any shard count and pinnable in tests.
	PeakRankState int64

	// spec is the Config.JobSpec the run was built from (nil when no
	// spec was attached); see Spec.
	spec any
}

// Spec returns the canonical job description attached to the run's
// Config (Config.JobSpec), nil when the run was configured directly.
// Callers that built the config through the jobspec layer assert it
// back to a jobspec.Spec (bgpsim.JobSpec at the public surface).
func (r *Result) Spec() any { return r.spec }

// Stats returns the interconnect traffic counters (accessor form of
// the Net field).
func (r *Result) Stats() network.Stats { return r.Net }

// DroppedEvents returns how many trace events the run's trace buffer
// discarded for lack of capacity. A nonzero count means the trace is
// incomplete; raise the buffer's capacity.
func (r *Result) DroppedEvents() int64 { return r.Dropped }

// Recorder returns the run's probe as an *obs.Recorder when that is
// what the run was configured with, nil otherwise.
func (r *Result) Recorder() *obs.Recorder {
	rec, _ := r.Probe.(*obs.Recorder)
	return rec
}

// Profile returns the per-rank time decomposition when an
// *obs.Recorder probe was attached, nil otherwise.
func (r *Result) Profile() *obs.Profile {
	if rec := r.Recorder(); rec != nil {
		p := rec.Profile()
		if p != nil {
			p.PeakRankStateBytes = r.PeakRankState
		}
		return p
	}
	return nil
}

// CriticalPath returns the critical-path walk when an *obs.Recorder
// probe was attached, nil otherwise.
func (r *Result) CriticalPath() *obs.CritPath {
	if rec := r.Recorder(); rec != nil {
		return rec.CriticalPath()
	}
	return nil
}

// MaxTimer returns the maximum accumulated duration of the named timer
// across ranks (zero if the timer never ran).
func (r *Result) MaxTimer(name string) sim.Duration {
	var max sim.Duration
	for _, d := range r.Timers[name] {
		if d > max {
			max = d
		}
	}
	return max
}

// TimerOfRank returns the named timer of one rank (zero if absent).
func (r *Result) TimerOfRank(rank int, name string) sim.Duration {
	ds := r.Timers[name]
	if rank < 0 || rank >= len(ds) {
		return 0
	}
	return ds[rank]
}

// Run executes the program on every rank and returns the result: Begin
// followed by Finish. A World can run only once. An MPI deadlock in the
// program is returned as an error (wrapping *sim.DeadlockError).
func (w *World) Run(program func(*Rank)) (*Result, error) {
	run, err := w.Begin(program)
	if err != nil {
		return nil, err
	}
	return run.Finish()
}

// effectiveShards decides the execution path: 0 means the serial
// kernel, n >= 1 means the sharded coordinator with n domains. Any
// explicitly requested shard count — including 1 — takes the sharded
// path, because sharded runs use the canonical same-timestamp event
// order (sim.Kernel.Keyed) and must be byte-identical at every
// requested count; -shards 1 is the baseline the others are compared
// against. Eligibility is count-independent for the same reason: a
// configuration that cannot shard (contention or packet fidelity,
// whose torus models mutate per-link state shared across all nodes;
// an active link-fault plan, which routes through that state; or zero
// lookahead) falls back to serial at every count.
func (w *World) effectiveShards() int {
	s := w.cfg.Shards
	if s <= 0 {
		return 0
	}
	if w.cfg.Fidelity != network.Analytic {
		return 0
	}
	if w.cfg.Faults.HasLinkFaults() {
		return 0
	}
	if w.net.Lookahead() <= 0 {
		// Zero lookahead: a message can arrive in the timestamp it was
		// sent, so no conservative window wider than a single event
		// exists. Run serial.
		return 0
	}
	return s
}

// spawnRanks starts every rank's process on the rank's kernel (the
// World's, or its shard's in a sharded run) and sets up the per-rank
// finish times the Result reports (Begin, on either kernel). The
// process body is a closure rather than a method
// value, and only runs under transparent recovery carry the deferred
// unwind (the only way a rank unwinds without failing the run), so a
// healthy run puts one small frame under the program on every rank's
// stack (see "rank stack budget" in docs/PERFORMANCE.md).
func (w *World) spawnRanks(program func(*Rank)) {
	w.program = program
	w.finish = make([]sim.Duration, len(w.ranks))
	for _, r := range w.ranks {
		body := func(*sim.Proc) {
			r.w.program(r)
			r.done()
		}
		if w.recovery {
			body = func(*sim.Proc) {
				defer r.unwound()
				r.w.program(r)
				r.done()
			}
		}
		r.proc = r.k.SpawnNumbered("rank ", r.id, body)
	}
}

// done records a rank's finish time after its program returns.
func (r *Rank) done() {
	r.w.finish[r.id] = sim.Duration(r.proc.Now())
	if r.k.Probe != nil {
		r.pb.RankDone(r.id, r.proc.Now())
	}
}

// unwound is the rank process's deferred exit under transparent
// recovery. A killed rank unwinds with a rankKilledPanic; it is
// absorbed here (recording when the rank died) so the kernel's wrapper
// never sees it. No RankDone: the rank did not finish the program.
func (r *Rank) unwound() {
	if v := recover(); v != nil {
		if _, killed := v.(rankKilledPanic); killed {
			r.w.finish[r.id] = sim.Duration(r.proc.Now())
			return
		}
		if _, cancelled := v.(peerLostPanic); cancelled {
			// A survivor whose plain blocking wait was cancelled on
			// a dead peer (log=sender): the error is already in the
			// rank's cold state for Result.PeerLost. No RankDone —
			// the rank did not finish the program.
			r.w.finish[r.id] = sim.Duration(r.proc.Now())
			return
		}
		panic(v)
	}
}

// Modeled per-rank state sizes for the PeakRankState telemetry: the
// fixed rank record and the cost of one queued unmatched message or
// posted receive. Fixed constants (not unsafe.Sizeof) so the reported
// value is identical across architectures and pinnable in tests.
const (
	rankStateBaseBytes = 320
	queuedMsgBytes     = 96
	postedReqBytes     = 64
)

// peakRankState returns the modeled peak per-rank state footprint.
func (w *World) peakRankState() int64 {
	var peak int64
	for _, r := range w.ranks {
		b := int64(rankStateBaseBytes) +
			int64(r.peakInbox)*queuedMsgBytes +
			int64(r.peakPosted)*postedReqBytes
		if b > peak {
			peak = b
		}
	}
	return peak
}

// buildResult assembles the kernel-independent parts of a Result:
// per-rank finish times, timers, losses, probe, dropped trace events,
// and the memory telemetry. The caller fills Events, Net, and Shards.
func (w *World) buildResult() *Result {
	res := &Result{
		RankElapsed:   w.finish,
		Timers:        make(map[string][]sim.Duration),
		Probe:         w.cfg.Probe,
		Lost:          w.Lost(),
		PeakRankState: w.peakRankState(),
		spec:          w.cfg.JobSpec,
	}
	if w.cfg.Trace != nil {
		res.Dropped = w.cfg.Trace.Dropped()
	}
	for _, d := range w.finish {
		if d > res.Elapsed {
			res.Elapsed = d
		}
	}
	for _, r := range w.ranks {
		if pl := r.coldView().peerLost; pl != nil {
			res.PeerLost = append(res.PeerLost, pl)
		}
	}
	for _, r := range w.ranks {
		for name, d := range r.coldView().timers {
			ds, ok := res.Timers[name]
			if !ok {
				ds = make([]sim.Duration, len(w.ranks))
				res.Timers[name] = ds
			}
			ds[r.id] = d
		}
	}
	return res
}

// Execute builds a world from cfg and runs the program: the common
// one-shot path.
func Execute(cfg Config, program func(*Rank)) (*Result, error) {
	w, err := NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	return w.Run(program)
}
