package mpi

import (
	"fmt"

	"bgpsim/internal/sim"
)

// message is an in-flight transfer. For eager sends it represents the
// data itself; for rendezvous sends it is the ready-to-send header and
// the data transfer starts when the receiver matches it.
type message struct {
	src, dst int // world rank ids
	tag      int
	collKey  string // non-empty for collective-internal traffic
	bytes    int
	payload  interface{}
	eager    bool
	sender   *Request // rendezvous: the sender's blocked request
	sentAt   sim.Time // send time, for probe match edges (probe runs only)
}

// Request is a handle for a non-blocking operation.
type Request struct {
	r       *Rank
	isRecv  bool
	src     int // matching source (receives)
	dst     int // destination rank (sends), for orphan cancellation
	tag     int
	collKey string
	done    bool
	waiting bool
	msg     *message // matched message (receives)
}

// Done reports whether the operation has completed.
func (q *Request) Done() bool { return q.done }

// Payload returns the received message's payload (nil until a receive
// completes).
func (q *Request) Payload() interface{} {
	if q.msg == nil {
		return nil
	}
	return q.msg.payload
}

// IsendPayload starts a non-blocking send carrying a value.
func (r *Rank) IsendPayload(dst, bytes, tag int, payload interface{}) *Request {
	return r.isendPayload(dst, bytes, tag, "", payload)
}

func (r *Rank) swOverhead() sim.Duration {
	return sim.Seconds(r.w.mach.SWLatency)
}

// Send transmits bytes to rank dst with the given tag and blocks until
// the send buffer is reusable: immediately after local processing for
// eager messages, after the full transfer for rendezvous messages.
func (r *Rank) Send(dst, bytes, tag int) { r.sendPayload(dst, bytes, tag, "", nil) }

// SendPayload is Send carrying an arbitrary value, used by tests and
// by programs that need to move model data between ranks.
func (r *Rank) SendPayload(dst, bytes, tag int, payload interface{}) {
	r.sendPayload(dst, bytes, tag, "", payload)
}

func (r *Rank) sendPayload(dst, bytes, tag int, collKey string, payload interface{}) {
	req := r.isendPayload(dst, bytes, tag, collKey, payload)
	r.waitNoOverhead(req)
}

// Isend starts a non-blocking send and returns its request.
func (r *Rank) Isend(dst, bytes, tag int) *Request {
	return r.isendPayload(dst, bytes, tag, "", nil)
}

func (r *Rank) isendPayload(dst, bytes, tag int, collKey string, payload interface{}) *Request {
	return r.isendFrac(dst, bytes, tag, collKey, payload, 1.0)
}

// isendFrac is isendPayload with a scaled sender-side software cost
// (persistent channels pay a reduced overhead).
func (r *Rank) isendFrac(dst, bytes, tag int, collKey string, payload interface{}, overheadFrac float64) *Request {
	if r.dead && r.collAlgo == "" {
		killRank()
	}
	if r.floor != 0 {
		r.applyFloor()
	}
	if dst < 0 || dst >= len(r.w.ranks) {
		panic(fmt.Sprintf("mpi: send to invalid rank %d", dst))
	}
	if bytes < 0 {
		panic(fmt.Sprintf("mpi: negative send size %d", bytes))
	}
	r.proc.Sleep(sim.Duration(float64(r.swOverhead()) * overheadFrac)) // sender-side software cost
	if collKey != "" && r.collAlgo != "" {
		// Per-algorithm traffic attribution: one logical message with
		// its full payload, regardless of eager/rendezvous split.
		r.net.CollMessage(r.collAlgo, bytes)
	}
	dstRank := r.w.ranks[dst]
	req := &Request{r: r, dst: dst, tag: tag, collKey: collKey}
	msg := &message{src: r.id, dst: dst, tag: tag, collKey: collKey,
		bytes: bytes, payload: payload, sender: req}
	if r.pb != nil {
		msg.sentAt = r.proc.Now()
		probeSend(r, dst, bytes, tag, collKey != "")
	}
	wireBytes := bytes
	if bytes > r.w.mach.EagerLimit {
		// Rendezvous: only a small header travels now; the data moves
		// when the receiver matches it, and the request completes then.
		wireBytes = 0
	} else {
		msg.eager = true
		req.done = true // buffer reusable immediately
	}
	arrival, err := r.net.P2P(r.proc.Now(), r.place.Node, dstRank.place.Node, wireBytes)
	if err != nil {
		// The failed links partition the torus between the two ranks:
		// the program cannot proceed. Surface the typed topology error
		// from World.Run.
		sim.Fail(fmt.Errorf("mpi: rank %d send to rank %d: %w", r.id, dst, err))
	}
	// The delivery's canonical ordering key is the sender's: the stamp
	// is drawn here, at send time, so the delivery sorts at the same
	// same-timestamp position on the destination kernel whether it is
	// scheduled locally or carried through the inter-shard mailbox.
	stamp := r.proc.NextStamp()
	if r.logSend && collKey == "" {
		// Sender-based message logging: retain the envelope (not the
		// payload) so a later restart of the destination can replay the
		// message stream in canonical (creator rank, stamp) order. One
		// append behind one bool — the logging-off hot path is unchanged.
		c := r.coldState()
		c.sentLog = append(c.sentLog, logEnv{dst: dst, bytes: bytes, stamp: stamp, sentAt: r.proc.Now()})
	}
	if dstRank.sh != nil && dstRank.sh != r.sh {
		// Cross-shard: the arrival lies at least one torus-hop latency
		// (the lookahead) past now, so it is beyond the current window
		// and safe to insert at the next barrier.
		r.sh.mail(arrival, r.id, stamp, dstRank.sh, func() { dstRank.deliver(msg) }, false)
	} else {
		r.k.AtTagged(arrival, r.id, stamp, func() { dstRank.deliver(msg) })
	}
	return req
}

// Recv blocks until a message matching (src, tag) arrives and returns
// its size. Use AnySource and AnyTag as wildcards.
func (r *Rank) Recv(src, tag int) int {
	req := r.irecv(src, tag, "")
	r.Wait(req)
	return req.msg.bytes
}

// RecvPayload is Recv returning the carried payload as well.
func (r *Rank) RecvPayload(src, tag int) (int, interface{}) {
	req := r.irecv(src, tag, "")
	r.Wait(req)
	return req.msg.bytes, req.msg.payload
}

// Irecv posts a non-blocking receive for (src, tag).
func (r *Rank) Irecv(src, tag int) *Request {
	return r.irecv(src, tag, "")
}

func (r *Rank) irecv(src, tag int, collKey string) *Request {
	if r.dead && r.collAlgo == "" {
		killRank()
	}
	if r.floor != 0 {
		r.applyFloor()
	}
	req := &Request{r: r, isRecv: true, src: src, dst: -1, tag: tag, collKey: collKey}
	if r.pb != nil {
		probeRecvPost(r, src, tag)
	}
	// Try the inbox first (first matching arrival wins).
	for i, m := range r.inbox {
		if req.matches(m) {
			r.inbox = append(r.inbox[:i], r.inbox[i+1:]...)
			r.matched(req, m)
			return req
		}
	}
	r.posted = append(r.posted, req)
	if len(r.posted) > r.peakPosted {
		r.peakPosted = len(r.posted)
	}
	return req
}

// matches reports whether message m satisfies receive request q.
func (q *Request) matches(m *message) bool {
	if q.collKey != m.collKey {
		return false
	}
	if q.src != AnySource && q.src != m.src {
		return false
	}
	if q.tag != AnyTag && q.tag != m.tag {
		return false
	}
	return true
}

// deliver runs at a message's wire arrival time on the destination
// rank (eager data or rendezvous header).
func (r *Rank) deliver(m *message) {
	if r.dead && r.w.cancelP2P && m.collKey == "" {
		// Orphan cancellation: a user message arriving at a dead rank is
		// never matched; NACK a rendezvous sender so its wait completes.
		r.cancelDelivery(m)
		return
	}
	for i, q := range r.posted {
		if q.matches(m) {
			r.posted = append(r.posted[:i], r.posted[i+1:]...)
			r.matched(q, m)
			return
		}
	}
	r.inbox = append(r.inbox, m)
	if len(r.inbox) > r.peakInbox {
		r.peakInbox = len(r.inbox)
	}
}

// matched pairs receive request q with message m. Eager data is
// complete on the spot; a rendezvous match starts the bulk transfer.
func (r *Rank) matched(q *Request, m *message) {
	q.msg = m
	if r.pb != nil {
		probeMatch(r, m)
	}
	if m.eager {
		r.completeRecv(q)
		return
	}
	// Rendezvous: clear-to-send handshake, then the bulk transfer.
	now := r.k.Now()
	start := now.Add(sim.Seconds(r.w.mach.RendezvousRTT))
	srcRank := r.w.ranks[m.src]
	done, err := r.net.P2P(start, srcRank.place.Node, r.place.Node, m.bytes)
	if err != nil {
		// matched runs inside an event callback, not a rank process, so
		// abort the kernel directly instead of sim.Fail.
		r.k.Abort(fmt.Errorf("mpi: rank %d bulk transfer from rank %d: %w", r.id, m.src, err))
		return
	}
	// Both completion events are created on the receiver's behalf (this
	// runs inside the delivery callback, outside any process body), so
	// their canonical keys come from the receiver's counter.
	if srcRank.sh != nil && srcRank.sh != r.sh {
		// Cross-shard rendezvous: complete the receive locally, and mail
		// the sender-side completion to the sender's shard now. done is
		// at least one lookahead past the match time, so the mail is
		// insertable at the next barrier even if this shard stalls
		// before the local completion event fires. The mail is an
		// auxiliary event (serial completes both sides in one event), so
		// it is excluded from the event count.
		r.k.AtTagged(done, r.id, r.proc.NextStamp(), func() { r.completeRecv(q) })
		r.sh.mail(done, r.id, r.proc.NextStamp(), srcRank.sh, func() {
			sq := m.sender
			sq.done = true
			if sq.waiting {
				sq.r.proc.Wake()
			}
		}, true)
		return
	}
	r.k.AtTagged(done, r.id, r.proc.NextStamp(), func() {
		r.completeRecv(q)
		sq := m.sender
		sq.done = true
		if sq.waiting {
			sq.r.proc.Wake()
		}
	})
}

func (r *Rank) completeRecv(q *Request) {
	q.done = true
	if q.waiting {
		r.proc.Wake()
	}
}

// Wait blocks until the request completes. Completed receives charge
// the receiver-side software overhead.
func (r *Rank) Wait(q *Request) {
	r.waitNoOverhead(q)
	if q.isRecv {
		r.proc.Sleep(r.swOverhead())
	}
}

func (r *Rank) waitNoOverhead(q *Request) {
	if err := r.waitErrNoOverhead(q); err != nil {
		// The plain blocking API has no error channel: unwind the rank
		// (recovered in Rank.run, surfaced through Result.PeerLost).
		r.peerLostUnwind(err)
	}
}

// Waitall blocks until every request completes.
func (r *Rank) Waitall(qs ...*Request) {
	for _, q := range qs {
		r.Wait(q)
	}
}

// Sendrecv performs a combined send and receive (the halo-exchange
// staple) and returns the received byte count.
func (r *Rank) Sendrecv(dst, sendBytes, sendTag, src, recvTag int) int {
	sreq := r.isendPayload(dst, sendBytes, sendTag, "", nil)
	rreq := r.irecv(src, recvTag, "")
	r.Wait(rreq)
	r.waitNoOverhead(sreq)
	return rreq.msg.bytes
}

// probeSend, probeRecvPost, and probeMatch keep the probe's
// interface-call spill slots off the isendFrac/irecv/matched frames,
// which sit on every rank coroutine's deepest communication path (same
// discipline as probeColl).
//
//go:noinline
func probeSend(r *Rank, dst, bytes, tag int, coll bool) {
	r.pb.Send(r.id, r.proc.Now(), dst, bytes, tag, coll)
}

//go:noinline
func probeRecvPost(r *Rank, src, tag int) {
	r.pb.RecvPost(r.id, r.proc.Now(), src, tag)
}

//go:noinline
func probeMatch(r *Rank, m *message) {
	r.pb.Match(r.id, r.k.Now(), m.src, m.sentAt, m.bytes, m.tag, m.collKey != "")
}

// sendColl / recvColl are the collective-internal variants keyed so
// collective traffic can never match user receives.
func (r *Rank) sendColl(dst, bytes int, key string) {
	r.sendPayload(dst, bytes, 0, key, nil)
}

func (r *Rank) recvColl(src int, key string) {
	q := r.irecv(src, AnyTag, key)
	r.Wait(q)
}

func (r *Rank) sendrecvColl(dst, bytes, src int, key string) {
	sreq := r.isendPayload(dst, bytes, 0, key, nil)
	rreq := r.irecv(src, AnyTag, key)
	r.Wait(rreq)
	r.waitNoOverhead(sreq)
}
