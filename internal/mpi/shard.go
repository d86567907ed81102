package mpi

// Sharded execution: conservative parallel discrete-event simulation
// (PDES) of one job across several event loops.
//
// Ranks are partitioned into contiguous torus-node slabs
// (topology.ShardOfNode), one sim.Kernel per shard, all synchronized
// by a time-windowed barrier: the coordinator computes the global
// minimum pending event time T and lets every shard run freely through
// the window [T, T+L), where the lookahead L is the minimum latency of
// any cross-shard message (one torus hop — the slab partition
// guarantees ranks of different shards are at least one hop apart).
// Inside the window no shard can affect another, so the windows run on
// concurrent goroutines; at the barrier the coordinator delivers
// cross-shard messages (timestamped mail), drains collective-gate
// entries into the serial gate machinery, and processes due node
// faults.
//
// Determinism. Every shard kernel runs keyed (sim.Kernel.Keyed):
// same-timestamp events fire in canonical (creator rank, per-creator
// stamp) order instead of creation order. A creator's stamp sequence
// depends only on that rank's own execution, never on which shard its
// peers landed on, so the canonical order — and with it every
// order-sensitive model interaction, such as same-node shared-memory
// channel queuing — is identical at every shard count. Mail carries
// the key its delivery would have had if scheduled locally, so a
// message sorts identically whether its endpoints share a shard or
// not. Observable results — elapsed times, event counts, traffic
// stats, traces, probe streams — are therefore byte-identical at any
// shard count and any worker parallelism, and match the serial kernel
// whenever no two same-timestamp events contend for shared state
// (creation order and canonical order only differ on such ties).
//
// Collectives spanning shards gate on the window boundary: a rank
// entering a collective caps its shard's window just past the entry
// (same-timestamp local work still fires) and the shard sits out
// subsequent windows until the coordinator completes the gate. When
// every shard is capped, the coordinator falls back to firing the
// globally earliest event (StepOne) — a correct-but-serial path that
// keeps skewed workloads progressing.

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"

	"bgpsim/internal/fault"
	"bgpsim/internal/network"
	"bgpsim/internal/obs"
	"bgpsim/internal/sim"
	"bgpsim/internal/topology"
)

// xmail is one cross-shard message: a handler to schedule on the
// destination shard's kernel at time t. Mail is collected in per-shard
// outboxes during a window and inserted at the barrier under the
// creator's canonical key (src, stamp) — the key the event would have
// carried had it been scheduled locally, so the destination's keyed
// heap fires it at the same same-timestamp position at any shard
// count. The handler is a message (its delivery), a sendDone (a
// rendezvous sender's completion) or an orphanNack: each is the
// message record itself, so mail allocates nothing per message.
type xmail struct {
	t     sim.Time
	src   int
	stamp uint64
	dst   *shard
	h     sim.Handler
}

// shardGateEntry is one rank's arrival at a collective gate, logged on
// its shard during a window and replayed into the serial gate
// machinery at the barrier.
type shardGateEntry struct {
	call *gateCall
	r    *Rank
	t    sim.Time
	val  interface{}
}

// shard is one domain of a sharded run: a slab of torus nodes, their
// ranks, a private kernel, a private network clone (shared read-only
// machine/topology, private stats), and a per-shard probe log.
type shard struct {
	w   *World
	id  int
	k   *sim.Kernel
	net *network.Net
	pb  *obs.ShardLog // nil when the run has neither probe nor trace

	ranks []*Rank

	outbox []xmail

	entries []shardGateEntry

	// lastCall is the gate record of the latest collective a rank of
	// this shard entered, shared by the shard's other entrants
	// (Comm.uniformCall).
	lastCall *gateCall

	// recs is the shard kernel's free lists of message records.
	recs records

	// blockedGates counts this shard's ranks blocked in collective
	// gates the coordinator has not yet completed. While positive the
	// shard sits out windows: its remaining ranks must not advance past
	// the gate's (still unknown) release time.
	blockedGates int

	err error // RunWindow/StepOne error (abort, event limit)
}

// mail queues a cross-shard delivery in this shard's outbox. The stamp
// must come from the creating rank's counter (Proc.NextStamp), drawn
// at the point the serial kernel would have scheduled the event.
func (s *shard) mail(m xmail) {
	s.outbox = append(s.outbox, m)
}

// shardMailLocalOrder discards the canonical keys of barrier mail and
// inserts it in destination-kernel creation order instead — the merge
// bug the determinism tests must be able to catch: a mailed delivery
// then fires after same-timestamp local events it canonically precedes,
// so shard counts that route the message differently diverge. It exists
// only for the mutation guard in the tests; flipping it must make the
// sharded determinism comparison fail.
var shardMailLocalOrder = false

// syncShard is sync's sharded path: log the gate entry for the
// coordinator, cap the shard's window just past the entry time
// (same-timestamp local entries still fire, so synchronized workloads
// keep their parallelism), and block until the coordinator completes
// the gate at a barrier. The entry buffer keeps its capacity across
// windows, so after the first barrier the append does not allocate on
// the rank's stack.
func (c *Comm) syncShard(r *Rank, call *gateCall, val interface{}) interface{} {
	sh := r.sh
	sh.entries = append(sh.entries, shardGateEntry{call: call, r: r, t: r.proc.Now(), val: val})
	sh.blockedGates++
	sh.k.LimitWindow(r.proc.Now().Add(1))
	r.proc.BlockWith("collective ", call.key)
	if r.gateDropped {
		r.gateDropped = false
		r.gateResult = nil
		killRank()
	}
	res := r.gateResult
	r.gateResult = nil
	return res
}

// beginSharded sets a run up on nshards shard kernels: per-shard probe
// logs and rank placement on the torus-node slabs. It returns the run's
// rank-event consumer, which the logs merge into when the run ends
// (finishSharded), and the node faults the coordinator processes
// between windows. The ranks are spawned after it (World.Begin).
func (w *World) beginSharded(nshards int) (dst obs.Probe, pend []fault.NodeFault) {
	w.sharded = true
	// Every probe call of the run buffers into a log — the
	// coordinator's (fault processing, recovery charges) or the
	// calling rank's shard's — and the logs merge into the run's
	// consumers after the run. Link-fault schedules are reported
	// directly: the serial path emits them at run start, before any
	// timestamped event, and a time-sorted merge would displace them.
	// With the trace buffer as the only consumer the logs carry only
	// rank-event hooks and are bounded by its capacity, so a trace-only
	// run holds at most that many entries per log.
	dst = w.pb
	bound := 0
	if w.cfg.Probe == nil && w.cfg.Trace != nil {
		bound = w.cfg.Trace.Max()
	}
	if dst != nil {
		w.coordLog = obs.NewShardLog(bound)
		w.pb = w.coordLog
		if w.probe != nil {
			w.probe = w.coordLog
		}
	}

	shards := make([]*shard, nshards)
	for i := range shards {
		sh := &shard{w: w, id: i, k: sim.NewKernel(), net: w.net.ShardClone()}
		sh.k.Keyed()
		if dst != nil {
			sh.pb = obs.NewShardLog(bound)
			if w.cfg.Probe != nil {
				sh.k.Probe = sh.pb
			}
		}
		shards[i] = sh
	}
	w.shards = shards
	for _, r := range w.ranks {
		sh := shards[topology.ShardOfNode(r.place.Node, w.cfg.Nodes, nshards)]
		r.sh, r.k, r.net = sh, sh.k, sh.net
		if sh.pb != nil {
			r.pb = sh.pb // otherwise r.pb is already nil: no consumer
		}
		sh.ranks = append(sh.ranks, r)
	}

	// Node faults are processed by the coordinator between windows (the
	// serial path schedules them as kernel events). Sorted by time,
	// stable so same-time faults keep plan order, exactly like the
	// serial kernel's FIFO tie-break on events scheduled at setup.
	if w.cfg.Faults != nil {
		pend = append(pend, w.cfg.Faults.NodeFaults()...)
		sort.SliceStable(pend, func(i, j int) bool { return pend[i].At < pend[j].At })
		if w.cfg.Probe != nil {
			reportLinkFaults(w.cfg.Probe, w.cfg.Faults)
		}
	}
	return dst, pend
}

// coordinate drives the coordinator loop, which alternates concurrent
// shard windows with serial barriers (mail delivery, gate completion,
// fault processing), until every event and node fault with a time
// strictly below limit has fired. Every window horizon is capped at
// limit, as it is at node-fault times, so the loop pauses there; a
// stall step fires only an event below limit, which is the globally
// earliest one. It reports whether the run has drained: no event and
// no fault pending.
func (r *Running) coordinate(limit sim.Time) (drained bool, err error) {
	w := r.w
	L := w.net.Lookahead()
	for {
		T, ok := w.minShardTime()
		// Process node faults due at or before the next event — the
		// serial kernel fires a fault event before any same-time rank
		// event (the fault was scheduled first). With no events pending,
		// all remaining faults below limit fire, as they would on the
		// serial kernel.
		for len(r.pend) > 0 && r.pend[0].At < limit && (!ok || r.pend[0].At <= T) {
			nf := r.pend[0]
			r.pend = r.pend[1:]
			if err := w.coordFault(nf); err != nil {
				return false, err
			}
			T, ok = w.minShardTime()
		}
		if !ok {
			return len(r.pend) == 0, nil
		}
		if T >= limit {
			return false, nil
		}
		H := min(T.Add(L), limit)
		if len(r.pend) > 0 && r.pend[0].At < H {
			// Never open a window across a fault time: the fault must be
			// applied before any event beyond it fires.
			H = r.pend[0].At
		}
		fired := w.runWindows(H)
		if err := w.shardErr(); err != nil {
			return false, err
		}
		mailed := w.drainMail()
		w.drainEntries()
		if err := w.checkEventLimit(); err != nil {
			return false, err
		}
		if !fired && !mailed {
			// Every shard with pending events is gate-capped. Fire the
			// globally earliest event: its time is the minimum pending
			// head, every shard clock sits within one lookahead of that
			// (barrier invariant), so anything it schedules — local or
			// mail — lands at or after every clock.
			stepped, err := w.stallStep()
			if err != nil {
				return false, err
			}
			if stepped {
				w.drainMail()
				w.drainEntries()
				if err := w.checkEventLimit(); err != nil {
					return false, err
				}
			}
		}
	}
}

// finishSharded ends a sharded run that drained or failed with err. It
// merges the logs into the run's consumers on every exit (the serial
// kernel feeds them live, so they are populated even when the run ends
// in an error), restores the world's probes and seals the outcome.
func (r *Running) finishSharded(err error) error {
	w := r.w
	if r.dst != nil {
		logs := make([]*obs.ShardLog, len(w.shards))
		for i, sh := range w.shards {
			logs[i] = sh.pb
		}
		if n := obs.MergeShardLogs(r.dst, w.coordLog, logs); n > 0 {
			w.cfg.Trace.AddDropped(n) // only trace-only logs are bounded
		}
	}
	w.probe, w.pb = w.cfg.Probe, r.dst
	if err == nil && w.totalLive() > 0 {
		err = w.mergedDeadlock()
	}
	if err != nil {
		w.releaseShards()
		r.seal(nil, w.annotateDeadlock(err))
		return r.err
	}
	res := w.buildResult()
	res.Shards = len(w.shards)
	stats := w.net.Stats()
	for _, sh := range w.shards {
		stats.Add(sh.net.Stats())
	}
	res.Net = stats
	res.Events = w.shardedEvents()
	r.seal(res, nil)
	return nil
}

// minShardTime returns the earliest pending event time across all
// shard kernels — including gate-capped shards, whose pending events
// still bound how far any window may reach.
func (w *World) minShardTime() (sim.Time, bool) {
	var min sim.Time
	ok := false
	for _, sh := range w.shards {
		if t, has := sh.k.PeekTime(); has && (!ok || t < min) {
			min, ok = t, true
		}
	}
	return min, ok
}

// runWindows runs every un-capped shard's window up to limit —
// concurrently when more than one shard can run — and reports whether
// any event fired.
func (w *World) runWindows(limit sim.Time) bool {
	var before, after uint64
	var single *shard
	n := 0
	for _, sh := range w.shards {
		before += sh.k.Events()
		if sh.blockedGates == 0 && !sh.k.Drained() {
			single = sh
			n++
		}
	}
	switch {
	case n == 0:
	case n == 1:
		// One runnable shard: skip the goroutine round trip.
		single.err = single.k.RunWindow(limit)
	default:
		var wg sync.WaitGroup
		for _, sh := range w.shards {
			if sh.blockedGates > 0 || sh.k.Drained() {
				continue
			}
			wg.Add(1)
			go func(sh *shard) {
				defer wg.Done()
				sh.err = sh.k.RunWindow(limit)
			}(sh)
		}
		wg.Wait()
	}
	for _, sh := range w.shards {
		after += sh.k.Events()
	}
	return after != before
}

// shardErr picks the error to surface when shard windows failed:
// deterministically the one whose kernel clock is earliest (ties to
// the lowest shard id), the error a serial run would have hit first.
func (w *World) shardErr() error {
	var best *shard
	for _, sh := range w.shards {
		if sh.err == nil {
			continue
		}
		if best == nil || sh.k.Now() < best.k.Now() ||
			(sh.k.Now() == best.k.Now() && sh.id < best.id) {
			best = sh
		}
	}
	if best == nil {
		return nil
	}
	return best.err
}

// drainMail inserts all queued cross-shard messages into their
// destination kernels under their canonical keys and reports whether
// any were delivered. Insertion order is immaterial — the keyed heaps
// order same-timestamp events by (src, stamp) — so outboxes are walked
// in shard order. Every target time lies at or beyond the window
// bound, hence at or after every shard's clock.
func (w *World) drainMail() bool {
	mailed := false
	for _, sh := range w.shards {
		for _, m := range sh.outbox {
			k := m.dst.k
			if shardMailLocalOrder {
				k.At(m.t, m.h.Fire)
			} else {
				k.AtTagged(m.t, m.src, m.stamp, m.h)
			}
			mailed = true
		}
		sh.outbox = sh.outbox[:0]
	}
	return mailed
}

// drainEntries replays this window's collective-gate entries into the
// serial gate machinery in (time, world rank, per-shard order) —
// within one gate every permutation of entries yields the same
// completion (the finishers are entry-order independent), and across
// gates the order reproduces serial completion timing. Each shard's
// entries are sorted in place, stably, so a rank's own entries keep
// their order; a rank lives on one shard, so merging the shards'
// sorted runs by (time, world rank) never meets a cross-shard tie. A
// gate whose last live member arrives completes on the spot, with the
// coordinator's clock at that entry (exactly when the serial kernel
// completes it).
func (w *World) drainEntries() {
	n := 0
	for _, sh := range w.shards {
		if len(sh.entries) > 1 {
			slices.SortStableFunc(sh.entries, cmpGateEntry)
		}
		n += len(sh.entries)
	}
	if n == 0 {
		return
	}
	next := make([]int, len(w.shards))
	for ; n > 0; n-- {
		var e *shardGateEntry
		best := -1
		for i, sh := range w.shards {
			if j := next[i]; j < len(sh.entries) && (e == nil || cmpGateEntry(sh.entries[j], *e) < 0) {
				e, best = &sh.entries[j], i
			}
		}
		next[best]++
		w.vnow = e.t
		w.openGate(e.call).enter(e.r, e.t, e.val)
	}
	for _, sh := range w.shards {
		clear(sh.entries)
		sh.entries = sh.entries[:0]
	}
}

// cmpGateEntry orders gate entries by time, then world rank.
func cmpGateEntry(a, b shardGateEntry) int {
	if a.t != b.t {
		return cmp.Compare(a.t, b.t)
	}
	return cmp.Compare(a.r.id, b.r.id)
}

// coordFault applies one node fault, mirroring scheduleNodeFaults'
// kernel events: under recovery every fault fires one failNode event;
// fail-stop faults fire only when the node hosts a rank, and abort
// with *RankFailure only while the program still runs.
func (w *World) coordFault(nf fault.NodeFault) error {
	if w.cfg.Faults.Recover() {
		w.vnow = nf.At
		w.coordEvents++
		w.failNode(nf)
		w.refreshLiveComms()
		return nil
	}
	victim := -1
	for _, r := range w.ranks {
		if r.place.Node == nf.Node {
			victim = r.id
			break
		}
	}
	if victim < 0 {
		return nil // the serial path schedules no event either
	}
	w.vnow = nf.At
	w.coordEvents++
	if w.totalLive() > 0 {
		if w.probe != nil {
			w.probe.Fault(nf.At, "node-kill",
				fmt.Sprintf("node %d died, rank %d lost", nf.Node, victim))
		}
		return &RankFailure{Rank: victim, Node: nf.Node, At: nf.At}
	}
	return nil
}

// refreshLiveComms rewarms every registered communicator's live-member
// cache after a failure, while the coordinator has sole control — the
// shards' subsequent concurrent reads then never write the cache.
// liveComm may register derived communicators during the walk; the
// indexed loop picks them up.
func (w *World) refreshLiveComms() {
	if w.epoch == 0 {
		return
	}
	for i := 0; i < len(w.allComms); i++ {
		w.allComms[i].liveComm()
	}
}

// releaseShards ends every unfinished rank process on every shard
// kernel (sim.Kernel.Release) once a run is given up, so an aborted or
// deadlocked sharded run leaves no coroutine behind.
func (w *World) releaseShards() {
	for _, sh := range w.shards {
		sh.k.Release()
	}
}

// totalLive returns the number of unfinished rank processes across all
// shards.
func (w *World) totalLive() int {
	live := 0
	for _, sh := range w.shards {
		live += sh.k.Live()
	}
	return live
}

// shardedEvents returns the events a sharded run has fired: the
// coordinator's fault events plus every shard's counted events.
func (w *World) shardedEvents() uint64 {
	n := w.coordEvents
	for _, sh := range w.shards {
		n += sh.k.CountedEvents()
	}
	return n
}

// checkEventLimit enforces Config.EventLimit globally: the shard
// kernels run uncapped and the coordinator sums their counted events
// (plus its own fault events) at each barrier. The reported time is
// the latest shard clock; it can differ from the serial message's time
// because the serial kernel stops mid-window.
func (w *World) checkEventLimit() error {
	if w.cfg.EventLimit == 0 {
		return nil
	}
	if w.shardedEvents() > w.cfg.EventLimit {
		var max sim.Time
		for _, sh := range w.shards {
			if sh.k.Now() > max {
				max = sh.k.Now()
			}
		}
		return fmt.Errorf("sim: event limit %d exceeded at %v", w.cfg.EventLimit, max)
	}
	return nil
}

// stallStep fires the single globally earliest pending event (ties by
// canonical key, so the choice matches what a single keyed kernel
// holding every event would fire next). Used when every shard holding
// events is gate-capped: stepping strictly in global order keeps every
// insertion causal while collective entries trickle in.
func (w *World) stallStep() (bool, error) {
	var best *shard
	var bt sim.Time
	var bk uint64
	for _, sh := range w.shards {
		if t, key, ok := sh.k.PeekKey(); ok &&
			(best == nil || t < bt || (t == bt && key < bk)) {
			best, bt, bk = sh, t, key
		}
	}
	if best == nil {
		return false, nil
	}
	return best.k.StepOne()
}

// mergedDeadlock builds the DeadlockError of a sharded run: the latest
// shard clock (the serial kernel's last-event time) and every blocked
// process, in the serial error's (name, since) order.
func (w *World) mergedDeadlock() error {
	var max sim.Time
	var blocked []sim.BlockedProc
	for _, sh := range w.shards {
		if sh.k.Now() > max {
			max = sh.k.Now()
		}
		blocked = append(blocked, sh.k.BlockedProcs()...)
	}
	sort.Slice(blocked, func(i, j int) bool {
		if blocked[i].Name != blocked[j].Name {
			return blocked[i].Name < blocked[j].Name
		}
		return blocked[i].Since < blocked[j].Since
	})
	return &sim.DeadlockError{Time: max, Blocked: blocked}
}
