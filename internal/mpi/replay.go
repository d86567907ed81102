package mpi

// Sender-based message logging and replay (fault.Plan.EnableSenderLogging):
// the point-to-point half of the fault-tolerance story that recover.go's
// collective machinery leaves open. Every rank logs the envelopes of its
// outbound user point-to-point sends (logEnv; one append per send, gated
// by a single bool so the logging-off hot path is unchanged). A node kill
// then takes one of two shapes:
//
//   - Orphan cancellation (log=sender alone, World.cancelP2P): the
//     killed node's ranks leave the job exactly as under plain recovery,
//     and the stranded point-to-point traffic is cancelled at the
//     detection time instead of deadlocking the run. A survivor blocked
//     on a dead peer is woken at death + detection and its wait returns
//     a typed *PeerLostError: the error-aware API (WaitErr, RecvErr)
//     hands it to the program; the plain blocking API unwinds the rank
//     (peerLostPanic, absorbed in Rank.unwound and surfaced through
//     Result.PeerLost). Sends complete silently — an orphaned send
//     buffer is reusable, as after MPI_Cancel — and are counted in
//     network.Stats.Orphans. Wildcard (AnySource) receives are never
//     cancelled: a dead rank is indistinguishable from a slow one
//     there, so an unmatched wildcard still deadlocks, with the dead
//     ranks named in the error note (annotateDeadlock).
//
//   - User-level restart (log=sender,restart=ckpt, World.restartP2P):
//     no rank leaves the job. The killed node's ranks roll back to
//     their last CommitCheckpoint and the logged messages addressed to
//     them since that commit are replayed in canonical (creator rank,
//     stamp) key order — the sharded kernel's same-timestamp order, so
//     the replay schedule is identical at any shard count. The restart
//     is charged, not re-executed: each victim's clock is floored to
//     death + detection + reboot + checkpoint read-back + redone work
//     + replay serialization (restartNode), and the rank's live state
//     — which equals its post-replay state, since replayed messages
//     are exactly the ones it had already consumed — carries on. The
//     floor is applied at the rank's next boundary (applyFloor), so
//     in-flight interactions with survivors stay causal.
//
// Both shapes process the fault at a deterministic point — a kernel
// event in a serial run, the inter-window barrier in a sharded run —
// before any event past the fault time fires, so stdout stays
// byte-identical at any -j and any -shards N.

import (
	"errors"
	"fmt"
	"sort"

	"bgpsim/internal/fault"
	"bgpsim/internal/sim"
)

// PeerLostError reports that a blocked point-to-point operation was
// cancelled because its peer rank died under a fault plan with
// log=sender. It surfaces from WaitErr/RecvErr, or — when the plain
// blocking API was used — from Result.PeerLost after the affected rank
// unwound.
type PeerLostError struct {
	Rank int      // the surviving rank whose operation was cancelled
	Peer int      // the dead peer rank
	Node int      // the torus node the peer died on
	At   sim.Time // when the cancellation was delivered (death + detection)
}

func (e *PeerLostError) Error() string {
	return fmt.Sprintf("mpi: rank %d: peer rank %d lost (node %d died) at %v",
		e.Rank, e.Peer, e.Node, e.At)
}

// peerLostPanic unwinds a rank whose plain (error-unaware) blocking
// call was cancelled on a dead peer; the Rank.unwound wrapper absorbs it and
// keeps the error for Result.PeerLost.
type peerLostPanic struct{ err *PeerLostError }

// peerLostUnwind records the cancellation and unwinds the rank. Out of
// line: it sits on the p2p wait path but only ever runs once per rank.
//
//go:noinline
func (r *Rank) peerLostUnwind(err *PeerLostError) {
	r.coldState().peerLost = err
	if r.pb != nil {
		r.pb.RankFault(r.id, r.proc.Now(), "p2p-orphan", err.Peer, 0)
	}
	panic(peerLostPanic{err: err})
}

// logEnv is one logged outbound point-to-point envelope: enough to
// reconstruct the replay schedule (who sends what to whom, in which
// canonical position) without retaining payloads.
type logEnv struct {
	dst    int
	bytes  int
	stamp  uint64 // the send's canonical same-timestamp key
	sentAt sim.Time
}

// replayMutateOrder discards the canonical (creator rank, stamp) order
// of the replay queue and replays it reversed instead — the ordering
// bug the determinism tests must be able to catch: reversed replay
// re-times every "p2p-replay" event, so a run's trace and probe
// streams diverge from the serial baseline. It exists only for the
// mutation guard in the tests; flipping it must make the replay
// determinism comparison fail.
var replayMutateOrder = false

const (
	// restartRebootS is the default reboot-and-relaunch time charged to
	// a restarting rank (restart=ckpt) when Config.RestartReboot is
	// zero: the control system power-cycles the compute node and
	// reloads CNK plus the application image before the checkpoint can
	// be read back.
	restartRebootS = 1.0
	// restartReadBWBps is the default checkpoint read-back bandwidth
	// when the run does not install Config.RestartRead: a flat
	// file-system stream, the simple stand-in for the stateful iosys
	// model internal/ckpt wires in.
	restartReadBWBps = 1e9
)

// WaitErr is Wait for programs that handle peer loss themselves: under
// a fault plan with log=sender (without restart=ckpt) it returns a
// *PeerLostError when the request's peer died, instead of unwinding
// the rank the way Wait does. On every other configuration and outcome
// it behaves exactly like Wait and returns nil.
func (r *Rank) WaitErr(q *Request) error {
	if err := r.waitErrNoOverhead(q); err != nil {
		return err
	}
	if q.isRecv {
		r.proc.Sleep(r.swOverhead())
	}
	return nil
}

// RecvErr is Recv with peer-loss reporting: it returns the received
// byte count, or a *PeerLostError when src died under a fault plan
// with log=sender before a matching message arrived.
func (r *Rank) RecvErr(src, tag int) (int, error) {
	q := r.Irecv(src, tag)
	if err := r.WaitErr(q); err != nil {
		return 0, err
	}
	return q.msg.bytes, nil
}

// waitErrNoOverhead is the wait loop shared by Wait and WaitErr. The
// healthy path is one done-check and one Block, exactly the pre-logging
// wait; the loop only re-checks after a wake, which needs no spurious-
// wake tolerance beyond orphan cancellation (every other wake implies
// q.done). Under orphan cancellation it checks the peer at entry and
// after every wake, so both a wait entered after the death and a wait
// woken by failNode's sweep deliver the error at death + detection.
func (r *Rank) waitErrNoOverhead(q *Request) *PeerLostError {
	if q.r != r {
		panic("mpi: waiting on another rank's request")
	}
	for !q.done {
		if r.w.cancelP2P && q.key.c == nil {
			if err := r.orphanCheck(q); err != nil {
				return err
			}
			if q.done {
				break
			}
		}
		q.waiting = true
		kind := "MPI_Wait(send)"
		if q.isRecv {
			kind = "MPI_Wait(recv)"
		}
		r.proc.Block(kind)
		q.waiting = false
		if r.dead && r.collAlgo == "" {
			// Woken by failNode, not by completion: unwind the dead rank
			// out of its point-to-point wait.
			killRank()
		}
		if r.floor != 0 {
			r.applyFloor()
		}
	}
	return nil
}

// orphanCheck inspects one pending user request against the dead-rank
// set under orphan cancellation. A receive naming a dead source is
// cancelled: the detection latency is charged and the typed error
// returned (unless the message arrived during the detection sleep — a
// racing in-flight transfer still wins). A send to a dead destination
// completes silently after the same charge; its NACK or failNode sweep
// may already have done so.
func (r *Rank) orphanCheck(q *Request) *PeerLostError {
	w := r.w
	if q.isRecv {
		src := int(q.src)
		if src < 0 || !w.deadRank[src] {
			return nil
		}
		r.chargeDetect(src)
		if q.done {
			return nil
		}
		r.unpost(q)
		r.net.RecordOrphan()
		dr := w.ranks[src]
		return &PeerLostError{Rank: r.id, Peer: src, Node: dr.place.Node, At: r.proc.Now()}
	}
	dst := int(q.dst)
	if dst < 0 || !w.deadRank[dst] {
		return nil
	}
	r.chargeDetect(dst)
	if !q.done {
		q.done = true
		r.net.RecordOrphan()
	}
	return nil
}

// chargeDetect sleeps the rank to the peer's death + detection time —
// the earliest moment the control system could have told it the peer
// is gone. A rank arriving later pays nothing.
func (r *Rank) chargeDetect(peer int) {
	limit := r.w.deadAt[peer].Add(sim.Seconds(recoveryDetectS))
	if limit > r.proc.Now() {
		r.proc.SleepUntil(limit)
		if r.dead && r.collAlgo == "" {
			killRank()
		}
	}
}

// unpost removes a cancelled receive from the posted queue so a later
// message for the same (src, tag) cannot match a request the program
// already saw fail.
func (r *Rank) unpost(q *Request) {
	for i, p := range r.posted {
		if p == q {
			r.posted = append(r.posted[:i], r.posted[i+1:]...)
			return
		}
	}
}

// cancelDelivery handles a user point-to-point message arriving at a
// dead rank under orphan cancellation. Eager payloads die with the
// rank. A rendezvous header is answered with a zero-byte NACK to the
// sender — scheduled like any control message, so the sender's
// completion (cancellation) time is a network quantity, and carried
// cross-shard as counted mail (the serial kernel spends one event on
// it too, keeping event counts identical at any shard count).
func (r *Rank) cancelDelivery(m *message) {
	if m.req.eager {
		r.net.RecordOrphan()
		return
	}
	src := m.req.r
	ack, err := r.net.P2P(r.k.Now(), r.place.Node, src.place.Node, 0)
	if err != nil {
		r.k.Abort(fmt.Errorf("mpi: rank %d orphan nack to rank %d: %w", r.id, src.id, err))
		return
	}
	stamp := r.proc.NextStamp()
	if src.sh != nil && src.sh != r.sh {
		r.sh.mail(xmail{t: ack, src: r.id, stamp: stamp, dst: src.sh, h: (*orphanNack)(m)})
	} else {
		r.k.AtTagged(ack, r.id, stamp, (*orphanNack)(m))
	}
}

// orphanNack is the NACK that completes a rendezvous sender whose
// header reached a dead rank: the message itself under another type,
// fired on the sender's kernel.
type orphanNack message

// Fire cancels the send, unless it completed meanwhile.
func (n *orphanNack) Fire() {
	sq := &n.req
	if sq.done {
		return
	}
	sq.done = true
	sq.r.net.RecordOrphan()
	if sq.waiting {
		sq.r.proc.Wake()
	}
}

// cancelOrphans is failNode's point-to-point sweep under orphan
// cancellation, run at death time with the shards quiescent. Undelivered
// user messages in dead inboxes are orphaned — blocked rendezvous
// senders complete at death + detection, eager payloads are simply
// dropped — and every survivor blocked on a receive from a dead source
// is woken at death + detection, where its wait loop delivers the
// *PeerLostError. Walk order (victims, then survivors, both in rank
// order) and the single wake time make the unwind deterministic.
func (w *World) cancelOrphans(victims []*Rank, at sim.Time) {
	cancelAt := at.Add(sim.Seconds(recoveryDetectS))
	orphaned := 0
	for _, v := range victims {
		kept := v.inbox[:0]
		for _, m := range v.inbox {
			if m.req.key.c != nil {
				// Collective-internal rounds complete under the gate
				// repair in failNode; never cancel them.
				kept = append(kept, m)
				continue
			}
			orphaned++
			v.net.RecordOrphan()
			if !m.req.eager && !m.req.done {
				sq := &m.req
				sq.done = true
				if sq.waiting {
					sq.r.proc.WakeAt(cancelAt)
				}
			}
		}
		v.inbox = kept
	}
	woken := 0
	for _, s := range w.ranks {
		if s.dead || !s.proc.Blocked() {
			continue
		}
		for _, q := range s.posted {
			if q.waiting && q.key.c == nil && q.src >= 0 && w.deadRank[int(q.src)] {
				s.proc.WakeAt(cancelAt)
				woken++
				break
			}
		}
	}
	if w.probe != nil {
		w.probe.Fault(at, "p2p-orphan", fmt.Sprintf(
			"node death orphaned %d queued message(s), woke %d blocked receiver(s); cancellations land at %v",
			orphaned, woken, cancelAt))
	}
}

// replayMsg is one logged envelope due for replay into a restarting
// rank.
type replayMsg struct {
	src   int
	stamp uint64
	bytes int
}

// replayQueue collects every logged envelope addressed to the victim
// since its last checkpoint commit, in canonical (creator rank, stamp)
// key order — the sharded kernel's same-timestamp order, so the replay
// schedule (and with it the restart charge and the "p2p-replay" event
// stream) is identical at any shard count. Messages sent at exactly
// the death time are included: in both the serial and sharded paths
// the fault is processed before any event past it, so a send stamped
// at the death time has already been logged everywhere.
func (w *World) replayQueue(v *Rank, at sim.Time) []replayMsg {
	var q []replayMsg
	for _, s := range w.ranks {
		for _, e := range s.coldView().sentLog {
			if e.dst == v.id && e.sentAt > v.coldView().lastCommitAt && e.sentAt <= at {
				q = append(q, replayMsg{src: s.id, stamp: e.stamp, bytes: e.bytes})
			}
		}
	}
	sort.Slice(q, func(i, j int) bool {
		if q[i].src != q[j].src {
			return q[i].src < q[j].src
		}
		return q[i].stamp < q[j].stamp
	})
	if replayMutateOrder {
		for i, j := 0, len(q)-1; i < j; i, j = i+1, j-1 {
			q[i], q[j] = q[j], q[i]
		}
	}
	return q
}

// restartNode is failNode's counterpart under restart=ckpt: no rank
// leaves the job. Each rank on the dead node is rolled back to its
// last CommitCheckpoint and charged the full user-level restart —
// detection, reboot, checkpoint read-back, the work since the commit
// done over, and the sender logs replayed in canonical order — as a
// clock floor applied at its next boundary. A rank that never
// committed restarts from the beginning (zero read-back, full rework).
// Like failNode, it runs as a kernel event in a serial run and at the
// inter-window barrier in a sharded one, before any event past the
// death time.
func (w *World) restartNode(nf fault.NodeFault) {
	var victims []*Rank
	for _, r := range w.ranks {
		if r.place.Node == nf.Node {
			victims = append(victims, r)
		}
	}
	if len(victims) == 0 {
		return
	}
	w.restarts++
	detect := sim.Seconds(recoveryDetectS)
	reboot := w.cfg.RestartReboot
	if reboot == 0 {
		reboot = sim.Seconds(restartRebootS)
	}
	// Every probe event is stamped at the death time, whatever wall the
	// charge lands at (the detail text carries the landing times): the
	// serial path emits them live inside the fault event, before any
	// same-time rank event, and the sharded path's merge, which puts
	// coordinator entries first at equal times, reproduces that exact
	// order at any shard count.
	for _, v := range victims {
		read := w.restartRead(nf.At, v)
		commitAt := v.coldView().lastCommitAt
		rework := nf.At.Sub(commitAt)
		if rework < 0 {
			rework = 0
		}
		q := w.replayQueue(v, nf.At)
		if w.probe != nil {
			w.probe.Fault(nf.At, "rank-restart", fmt.Sprintf(
				"node %d died, rank %d restarts from commit at %v: detect %v, reboot %v, read %v, rework %v, %d message(s) to replay",
				nf.Node, v.id, commitAt, detect, reboot, read, rework, len(q)))
		}
		if w.pb != nil {
			w.pb.RankFault(v.id, nf.At, "rank-restart", -1, 0)
		}
		t := nf.At.Add(detect + reboot + read + rework)
		var replayD sim.Duration
		var replayBytes int64
		for _, m := range q {
			c := w.net.ReplayCost(m.bytes)
			replayD += c
			replayBytes += int64(m.bytes)
			t = t.Add(c)
			if w.probe != nil {
				w.probe.Fault(nf.At, "p2p-replay", fmt.Sprintf(
					"rank %d <- rank %d: %d B replayed (stamp %d), lands %v", v.id, m.src, m.bytes, m.stamp, t))
			}
			if w.pb != nil {
				w.pb.RankFault(v.id, nf.At, "p2p-replay", m.src, m.bytes)
			}
		}
		if t > v.floor {
			v.floor = t
		}
		w.net.RecordRestart(detect+reboot+read+rework+replayD, replayD, len(q), replayBytes)
	}
}

// restartRead prices reading the victim's last committed checkpoint
// back: the installed Config.RestartRead hook (internal/ckpt wires its
// stateful storage model in), or a flat stream at restartReadBWBps.
func (w *World) restartRead(at sim.Time, v *Rank) sim.Duration {
	bytes := v.coldView().lastCommitBytes
	if bytes <= 0 {
		return 0
	}
	if f := w.cfg.RestartRead; f != nil {
		return f(at, v.place.Node, bytes)
	}
	return sim.Seconds(bytes / restartReadBWBps)
}

// CommitCheckpoint records that the rank durably committed a
// checkpoint of the given size at the current time. Under a fault plan
// with restart=ckpt, a later kill of the rank's node rolls it back
// here: the restart charge re-does the work since this commit and
// replays the logged messages delivered after it. The I/O cost of
// writing the checkpoint is the program's to model (internal/ckpt
// writes through iosys); CommitCheckpoint itself is free.
func (r *Rank) CommitCheckpoint(bytes float64) {
	if r.dead && r.collAlgo == "" {
		killRank()
	}
	if r.floor != 0 {
		r.applyFloor()
	}
	c := r.coldState()
	c.lastCommitAt = r.proc.Now()
	c.lastCommitBytes = bytes
}

// applyFloor sleeps the rank through its pending restart window. Out
// of line so the boundary checks sprinkled on the hot paths cost one
// load-and-compare when no restart is pending (the overwhelmingly
// common case).
//
//go:noinline
func (r *Rank) applyFloor() {
	f := r.floor
	r.floor = 0
	if f > r.proc.Now() {
		r.proc.SleepUntil(f)
	}
}

// annotateDeadlock threads the killed-rank set into a deadlock report.
// A survivor blocked on a dead peer is the common way a recovery-mode
// run still deadlocks — point-to-point traffic is only repaired under
// log=sender, and wildcard receives not even then — and the bare
// blocked-process list does not say so.
func (w *World) annotateDeadlock(err error) error {
	if len(w.lost) == 0 {
		return err
	}
	var de *sim.DeadlockError
	if !errors.As(err, &de) || de.Note != "" {
		return err
	}
	hint := "point-to-point traffic to a dead rank needs a fault plan with log=sender"
	if w.cancelP2P {
		hint = "wildcard (AnySource) receives are not cancelled by log=sender"
	}
	de.Note = fmt.Sprintf("rank(s) %v killed on node(s) %v; %s", w.lost, w.deadNodes, hint)
	return err
}
