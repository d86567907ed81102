package mpi

import (
	"fmt"

	"bgpsim/internal/sim"
)

// message is an in-flight transfer. For eager sends it represents the
// data itself; for rendezvous sends it is the ready-to-send header and
// the data transfer starts when the receiver matches it. The message
// embeds the sender's request and is its own event handler (Fire), so
// a send makes one allocation, in the send's entry frame (isendFrac);
// nothing deeper allocates (see "rank stack budget" in
// docs/PERFORMANCE.md).
type message struct {
	req     Request // the sender's request: sender, dst, tag, key, protocol
	bytes   int
	payload interface{}
	sentAt  sim.Time // send time, for probe match edges (probe runs only)
	recv    *Request // the matched receive, once a rendezvous header is matched
}

// Request is a handle for a non-blocking operation. Ranks and tags are
// stored as int32 (NewWorld bounds the rank count; isend and post
// reject values outside the range) so the request fits the allocator's
// 48-byte class.
type Request struct {
	r       *Rank
	msg     *message // matched message (receives)
	key     collKey  // collective-internal matching key; zero for user traffic
	src     int32    // matching source (receives)
	dst     int32    // destination rank (sends only), for orphan cancellation
	tag     int32
	isRecv  bool
	done    bool
	waiting bool
	eager   bool // sends: the message went eagerly, without a rendezvous
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
	return r.isendPayload(dst, bytes, tag, collKey{}, payload)
}

func (r *Rank) swOverhead() sim.Duration {
	return sim.Seconds(r.w.mach.SWLatency)
}

// Send transmits bytes to rank dst with the given tag and blocks until
// the send buffer is reusable: immediately after local processing for
// eager messages, after the full transfer for rendezvous messages.
func (r *Rank) Send(dst, bytes, tag int) {
	r.waitNoOverhead(r.isendFrac(dst, bytes, tag, 1))
}

// SendPayload is Send carrying an arbitrary value, used by tests and
// by programs that need to move model data between ranks.
func (r *Rank) SendPayload(dst, bytes, tag int, payload interface{}) {
	r.sendPayload(dst, bytes, tag, collKey{}, payload)
}

func (r *Rank) sendPayload(dst, bytes, tag int, key collKey, payload interface{}) {
	req := r.isendPayload(dst, bytes, tag, key, payload)
	r.waitNoOverhead(req)
}

// Isend starts a non-blocking send and returns its request. Its body
// is isendFrac's, spelled out so that it, too, inlines into the caller.
func (r *Rank) Isend(dst, bytes, tag int) *Request {
	m := &message{bytes: bytes}
	r.isend(m, dst, tag, 1)
	return &m.req
}

// isendFrac starts a plain point-to-point send with a scaled
// sender-side software cost (persistent channels pay a reduced
// overhead). It allocates the message, which embeds the send's
// request, and is small enough to inline, so the allocation happens in
// the calling entry point's frame, the shallowest point of the send
// (see "rank stack budget" in docs/PERFORMANCE.md).
func (r *Rank) isendFrac(dst, bytes, tag int, overheadFrac float64) *Request {
	m := &message{bytes: bytes}
	r.isend(m, dst, tag, overheadFrac)
	return &m.req
}

// isendPayload is isendFrac at the full software cost for collective
// traffic (key set) and payload-carrying sends.
func (r *Rank) isendPayload(dst, bytes, tag int, key collKey, payload interface{}) *Request {
	m := &message{bytes: bytes, payload: payload}
	m.req.key = key
	r.isend(m, dst, tag, 1)
	return &m.req
}

// isend validates a new send to dst, charges the sender-side software
// cost and puts the message on the wire.
func (r *Rank) isend(m *message, dst, tag int, overheadFrac float64) {
	m.req.r, m.req.dst, m.req.tag = r, int32(dst), int32(tag)
	if r.dead && r.collAlgo == "" {
		killRank()
	}
	if r.floor != 0 {
		r.applyFloor()
	}
	if uint(dst) >= uint(len(r.w.ranks)) {
		badSend(dst, 0)
	}
	if m.bytes < 0 {
		badSend(dst, m.bytes)
	}
	if int(m.req.tag) != tag {
		badTag(tag)
	}
	r.proc.Sleep(sim.Duration(float64(r.swOverhead()) * overheadFrac)) // sender-side software cost
	if m.req.key.c != nil && r.collAlgo != "" {
		collTraffic(r, m.bytes)
	}
	if r.pb != nil {
		m.sentAt = r.proc.Now()
		probeSend(r, m)
	}
	r.dispatch(m)
}

// dispatch puts a new message on the wire and schedules its arrival.
// An eager message's request completes at once; a rendezvous header
// carries no data, and its request completes when the receiver's bulk
// transfer lands.
func (r *Rank) dispatch(m *message) {
	wireBytes := m.bytes
	if m.bytes <= r.w.mach.EagerLimit {
		m.req.eager = true
		m.req.done = true // buffer reusable immediately
	} else {
		wireBytes = 0
	}
	dst := r.w.ranks[m.req.dst]
	arrival, err := r.net.P2P(r.proc.Now(), r.place.Node, dst.place.Node, wireBytes)
	if err != nil {
		failSend(r, int(m.req.dst), err)
	}
	// The delivery's canonical ordering key is the sender's: the stamp
	// is drawn here, at send time, so the delivery sorts at the same
	// same-timestamp position on the destination kernel whether it is
	// scheduled locally or carried through the inter-shard mailbox.
	stamp := r.proc.NextStamp()
	if r.logSend && m.req.key.c == nil {
		logSent(r, m, stamp)
	}
	if dst.sh != r.sh {
		// Cross-shard: the arrival lies at least one torus-hop latency
		// (the lookahead) past now, so it is beyond the current window
		// and safe to insert at the next barrier.
		mailFire(r, dst, arrival, stamp, m)
		return
	}
	r.k.AtTagged(arrival, r.id, stamp, m)
}

// mailFire queues a message's delivery for another shard's kernel. It
// is kept out of line so its argument spill stays off the frames of
// dispatch and rendezvous (rank stack budget, docs/PERFORMANCE.md).
//
//go:noinline
func mailFire(r, dst *Rank, t sim.Time, stamp uint64, m *message) {
	r.sh.mail(xmail{t: t, src: r.id, stamp: stamp, dst: dst.sh, h: m})
}

// mailSendDone queues a cross-shard rendezvous sender's completion for
// the sender's shard (see sendDone).
//
//go:noinline
func mailSendDone(r, src *Rank, t sim.Time, m *message) {
	r.sh.mail(xmail{t: t, src: r.id, stamp: r.proc.NextStamp(), dst: src.sh, h: (*sendDone)(m)})
}

// sendDone is a cross-shard rendezvous sender's completion, fired on
// the sender's shard kernel. It is the one mailed event with no serial
// counterpart (the serial kernel completes both sides in the
// receiver's completion event), so it is excluded from the event
// count. It is the message itself under another type, so mailing it
// allocates nothing.
type sendDone message

// Fire completes the send.
func (s *sendDone) Fire() {
	m := (*message)(s)
	m.completeSend()
	m.req.r.k.Uncount()
}

// Fire is the message's event handler. It first fires at the wire
// arrival and delivers the message; a matched rendezvous fires it again
// when the bulk transfer lands, completing the receive and — when both
// ranks share a kernel — the send.
func (m *message) Fire() {
	q := m.recv
	if q == nil {
		m.req.r.w.ranks[m.req.dst].deliver(m)
		return
	}
	q.r.completeRecv(q)
	if m.req.r.sh == q.r.sh {
		m.completeSend()
	}
}

// completeSend completes a rendezvous sender's request.
func (m *message) completeSend() {
	sq := &m.req
	sq.done = true
	if sq.waiting {
		sq.r.proc.Wake()
	}
}

// badSend, badTag, failSend, collTraffic and logSent keep the send's
// cold branches — the fmt panics, the link-failure error, the
// per-algorithm traffic map and the sender log — off the isendFrac and
// dispatch frames, which sit on every rank coroutine's deepest path and
// must fit the rank stack budget (docs/PERFORMANCE.md).
//
//go:noinline
func badSend(dst, bytes int) {
	if bytes >= 0 {
		panic(fmt.Sprintf("mpi: send to invalid rank %d", dst))
	}
	panic(fmt.Sprintf("mpi: negative send size %d", bytes))
}

// badTag rejects a tag outside the int32 range a request stores.
//
//go:noinline
func badTag(tag int) {
	panic(fmt.Sprintf("mpi: tag %d out of range", tag))
}

// badRecv rejects a receive whose source or tag is outside the int32
// range a request stores.
//
//go:noinline
func badRecv(src, tag int) {
	if int(int32(src)) != src {
		panic(fmt.Sprintf("mpi: receive from invalid rank %d", src))
	}
	badTag(tag)
}

// failSend surfaces a send whose failed links partition the torus
// between the two ranks: the program cannot proceed, so the typed
// topology error unwinds to World.Run.
//
//go:noinline
func failSend(r *Rank, dst int, err error) {
	sim.Fail(fmt.Errorf("mpi: rank %d send to rank %d: %w", r.id, dst, err))
}

// collTraffic attributes one collective-internal message, with its
// full payload regardless of the eager/rendezvous split, to the active
// software collective.
//
//go:noinline
func collTraffic(r *Rank, bytes int) {
	r.net.CollMessage(r.collAlgo, bytes)
}

// logSent is sender-based message logging: it retains the envelope (not
// the payload) so a later restart of the destination can replay the
// message stream in canonical (creator rank, stamp) order.
//
//go:noinline
func logSent(r *Rank, m *message, stamp uint64) {
	c := r.coldState()
	c.sentLog = append(c.sentLog, logEnv{dst: int(m.req.dst), bytes: m.bytes, stamp: stamp, sentAt: r.proc.Now()})
}

// Recv blocks until a message matching (src, tag) arrives and returns
// its size. Use AnySource and AnyTag as wildcards.
func (r *Rank) Recv(src, tag int) int {
	req := r.Irecv(src, tag)
	r.Wait(req)
	return req.msg.bytes
}

// RecvPayload is Recv returning the carried payload as well.
func (r *Rank) RecvPayload(src, tag int) (int, interface{}) {
	req := r.Irecv(src, tag)
	r.Wait(req)
	return req.msg.bytes, req.msg.payload
}

// Irecv posts a non-blocking receive for (src, tag). It allocates the
// receive's request — its only allocation — and is small enough to
// inline, so the allocation happens in the caller's frame; posting it
// (post) allocates nothing while the receive fits the rank's inline
// posted buffer.
func (r *Rank) Irecv(src, tag int) *Request {
	q := &Request{r: r, isRecv: true}
	r.post(q, src, tag)
	return q
}

// irecvColl is Irecv for collective-internal traffic: any tag, under
// the collective's key.
func (r *Rank) irecvColl(src int, key collKey) *Request {
	q := &Request{r: r, isRecv: true, key: key}
	r.post(q, src, AnyTag)
	return q
}

// post sets a new receive's source and tag, then matches it against
// the queued arrivals or queues it.
func (r *Rank) post(q *Request, src, tag int) {
	q.src, q.tag = int32(src), int32(tag)
	if int(q.src) != src || int(q.tag) != tag {
		badRecv(src, tag)
	}
	if r.dead && r.collAlgo == "" {
		killRank()
	}
	if r.floor != 0 {
		r.applyFloor()
	}
	if r.pb != nil {
		probeRecvPost(r, int(q.src), int(q.tag))
	}
	if m := r.takeArrived(q); m != nil {
		r.matched(q, m)
		return
	}
	r.queue(q)
}

// takeArrived removes and returns the first queued arrival matching q,
// nil when none has arrived. It and queue stay out of line so their
// slice-shuffling frames are not under post when a match starts a
// rendezvous (rank stack budget, docs/PERFORMANCE.md).
//
//go:noinline
func (r *Rank) takeArrived(q *Request) *message {
	for i, m := range r.inbox {
		if q.matches(m) {
			r.inbox = append(r.inbox[:i], r.inbox[i+1:]...)
			return m
		}
	}
	return nil
}

// queue queues an unmatched receive.
//
//go:noinline
func (r *Rank) queue(q *Request) {
	r.posted = append(r.posted, q)
	if len(r.posted) > r.peakPosted {
		r.peakPosted = len(r.posted)
	}
}

// matches reports whether message m satisfies receive request q.
func (q *Request) matches(m *message) bool {
	if q.key != m.req.key {
		return false
	}
	if q.src != AnySource && int(q.src) != m.req.r.id {
		return false
	}
	if q.tag != AnyTag && q.tag != m.req.tag {
		return false
	}
	return true
}

// deliver runs at a message's wire arrival time on the destination
// rank (eager data or rendezvous header).
func (r *Rank) deliver(m *message) {
	if r.dead && r.w.cancelP2P && m.req.key.c == nil {
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
// It runs in the delivery callback, or on the receiving rank's stack
// when the receive finds the header already queued.
func (r *Rank) matched(q *Request, m *message) {
	q.msg = m
	if r.pb != nil {
		probeMatch(r, m)
	}
	if m.req.eager {
		r.completeRecv(q)
		return
	}
	r.rendezvous(q, m)
}

// rendezvous runs the clear-to-send handshake and schedules the bulk
// transfer's completion with the message as its handler again, so a
// match allocates nothing. Both completion events are created on the
// receiver's behalf, so their canonical keys come from the receiver's
// counter.
func (r *Rank) rendezvous(q *Request, m *message) {
	start := r.k.Now().Add(sim.Seconds(r.w.mach.RendezvousRTT))
	src := m.req.r
	done, err := r.net.P2P(start, src.place.Node, r.place.Node, m.bytes)
	if err != nil {
		failBulk(r, m, err)
		return
	}
	m.recv = q
	r.k.AtTagged(done, r.id, r.proc.NextStamp(), m)
	if src.sh != r.sh {
		// Cross-shard rendezvous: Fire completes the receive locally, and
		// the sender-side completion is mailed to the sender's shard now.
		// done is at least one lookahead past the match time, so the mail
		// is insertable at the next barrier even if this shard stalls
		// before the local completion event fires. The mail is an
		// auxiliary event (serial completes both sides in one event), so
		// it is excluded from the event count.
		mailSendDone(r, src, done, m)
	}
}

// failBulk aborts the run on a bulk transfer whose failed links
// partition the torus. It may run inside an event callback rather than
// a rank process, so it aborts the kernel directly instead of sim.Fail.
//
//go:noinline
func failBulk(r *Rank, m *message, err error) {
	r.k.Abort(fmt.Errorf("mpi: rank %d bulk transfer from rank %d: %w", r.id, m.req.r.id, err))
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
		// (recovered in Rank.unwound, surfaced through Result.PeerLost).
		r.peerLostUnwind(err)
	}
}

// Waitall blocks until every request completes.
func (r *Rank) Waitall(qs ...*Request) {
	for _, q := range qs {
		r.Wait(q)
	}
}

// exchange is a combined send and receive in one allocation: the
// outgoing message, which embeds the send's request, and the receive's
// request (Sendrecv, and every round of a software collective).
type exchange struct {
	m message
	q Request
}

// Sendrecv performs a combined send and receive (the halo-exchange
// staple) and returns the received byte count. The send and the
// receive share one allocation (exchange), made in this entry frame.
func (r *Rank) Sendrecv(dst, sendBytes, sendTag, src, recvTag int) int {
	x := &exchange{m: message{bytes: sendBytes}, q: Request{r: r, isRecv: true}}
	r.isend(&x.m, dst, sendTag, 1)
	r.post(&x.q, src, recvTag)
	r.Wait(&x.q)
	r.waitNoOverhead(&x.m.req)
	return x.q.msg.bytes
}

// probeSend, probeRecvPost, and probeMatch keep the probe's
// interface-call spill slots off the isendFrac/irecv/matched frames,
// which sit on every rank coroutine's deepest communication path (same
// discipline as probeColl).
//
//go:noinline
func probeSend(r *Rank, m *message) {
	r.pb.Send(r.id, r.proc.Now(), int(m.req.dst), m.bytes, int(m.req.tag), m.req.key.c != nil)
}

//go:noinline
func probeRecvPost(r *Rank, src, tag int) {
	r.pb.RecvPost(r.id, r.proc.Now(), src, tag)
}

//go:noinline
func probeMatch(r *Rank, m *message) {
	r.pb.Match(r.id, r.k.Now(), m.req.r.id, m.sentAt, m.bytes, int(m.req.tag), m.req.key.c != nil)
}

// sendColl, recvColl and sendrecvColl are the collective-internal
// variants, keyed so collective traffic can never match user receives.
func (r *Rank) sendColl(dst, bytes int, key collKey) {
	r.waitNoOverhead(r.isendPayload(dst, bytes, 0, key, nil))
}

func (r *Rank) recvColl(src int, key collKey) {
	q := r.irecvColl(src, key)
	r.Wait(q)
}

func (r *Rank) sendrecvColl(dst, bytes, src int, key collKey) {
	x := &exchange{m: message{req: Request{key: key}, bytes: bytes}, q: Request{r: r, isRecv: true, key: key}}
	r.isend(&x.m, dst, 0, 1)
	r.post(&x.q, src, AnyTag)
	r.Wait(&x.q)
	r.waitNoOverhead(&x.m.req)
}
