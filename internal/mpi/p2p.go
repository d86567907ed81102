package mpi

import (
	"fmt"

	"bgpsim/internal/sim"
)

// message is an in-flight transfer. For eager sends it represents the
// data itself; for rendezvous sends it is the ready-to-send header and
// the data transfer starts when the receiver matches it. The message
// embeds the sender's request and is its own event handler (Fire).
// Isend and the non-blocking payload sends allocate it in the send's
// entry frame; the blocking sends, persistent sends and the software
// collectives' rounds take it from the kernel's free list (records).
// Nothing deeper allocates (see "rank stack budget" in
// docs/PERFORMANCE.md).
type message struct {
	req     Request // the sender's request: sender, dst, tag, key, protocol
	bytes   int
	payload interface{}
	sentAt  sim.Time // send time, for probe match edges (probe runs only)
	recv    *Request // the matched receive, once a rendezvous header is matched
	refs    int32    // releases outstanding of a recycled message (records); 0 if it is not recycled
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
	m := r.takeMessage()
	m.bytes = bytes
	r.isend(m, dst, tag, 1)
	r.waitNoOverhead(&m.req)
	r.retire(m, nil)
}

// SendPayload is Send carrying an arbitrary value, used by tests and
// by programs that need to move model data between ranks.
func (r *Rank) SendPayload(dst, bytes, tag int, payload interface{}) {
	r.sendPayload(dst, bytes, tag, collKey{}, payload)
}

func (r *Rank) sendPayload(dst, bytes, tag int, key collKey, payload interface{}) {
	m := r.takeMessage()
	m.bytes, m.payload, m.req.key = bytes, payload, key
	r.isend(m, dst, tag, 1)
	r.waitNoOverhead(&m.req)
	r.retire(m, nil)
}

// Isend starts a non-blocking send and returns its request. It
// allocates the message, which embeds the send's request, and is small
// enough to inline, so the allocation happens in the caller's frame,
// the shallowest point of the send (see "rank stack budget" in
// docs/PERFORMANCE.md).
func (r *Rank) Isend(dst, bytes, tag int) *Request {
	m := &message{bytes: bytes}
	r.isend(m, dst, tag, 1)
	return &m.req
}

// isendPayload is Isend for collective traffic (key set) and
// payload-carrying sends.
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
// The message is never recycled: the other kernel's goroutine reaches
// it (delivery, sendDone), so neither party releases it.
//
//go:noinline
func mailFire(r, dst *Rank, t sim.Time, stamp uint64, m *message) {
	m.refs = 0
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
// per-algorithm traffic map and the sender log — off the isend and
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
	q := r.takeRecv()
	r.post(q, src, tag)
	r.Wait(q)
	n := q.msg.bytes
	r.retire(nil, q)
	return n
}

// RecvPayload is Recv returning the carried payload as well.
func (r *Rank) RecvPayload(src, tag int) (int, interface{}) {
	q := r.takeRecv()
	r.post(q, src, tag)
	r.Wait(q)
	n, v := q.msg.bytes, q.msg.payload
	r.retire(nil, q)
	return n, v
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

// records is a kernel's free lists of message records: messages, each
// embedding its send's request, and receive requests. The serial
// kernel's lists live on World, each shard kernel's on its shard, so
// only one goroutine touches a list and it needs no lock. The blocking
// calls, whose requests never reach user code — Send, Sendrecv, Recv,
// the payload variants, persistent rounds and the software
// collectives' sendColl, recvColl and sendrecvColl — take their
// records here (takeMessage, takeRecv) and give them back (retire). A
// miss allocates what the call uses and no more: a message for a send,
// a request for a receive.
//
// A record's lifetime: a receive request is released by its owner once
// its wait has returned and it has read the byte count or payload. A
// message is released by its sender once its send wait has returned,
// and by its receiver once that receive has returned and been read;
// each party releases from its own process context, and the last
// release zeroes the message and pushes it on the list. A message is
// never recycled when it crosses kernels (mailFire), when its receiver
// holds a request user code can reach (Irecv, irecvColl), or when a
// rank unwinds before releasing (a kill, a lost peer, Kernel.Release):
// the garbage collector frees it then, so a missed release only costs
// an allocation, never an early reuse.
type records struct {
	msgs  []*message
	recvs []*Request
	made  int // records allocated on a miss; with one kernel and nothing leaked, all of them are back on the lists when a run ends
}

// recordNoReuse leaves released records to the garbage collector
// instead of recycling them. It exists only for the use-after-release
// guard in the tests: a run with reuse off must equal the same run
// with reuse on byte for byte.
var recordNoReuse = false

// records returns the free lists of the rank's kernel.
func (r *Rank) records() *records {
	if r.sh != nil {
		return &r.sh.recs
	}
	return &r.w.recs
}

// takeMessage returns a message for the rank to send, awaiting its
// sender's and its receiver's releases. Like takeRecv and retire, it
// stays out of line so the list operations stay off the send and
// receive frames (rank stack budget, docs/PERFORMANCE.md).
//
//go:noinline
func (r *Rank) takeMessage() *message {
	p := r.records()
	var m *message
	if n := len(p.msgs); n > 0 {
		m, p.msgs[n-1] = p.msgs[n-1], nil
		p.msgs = p.msgs[:n-1]
	} else {
		m = new(message)
		p.made++
	}
	m.refs = 2
	return m
}

// takeRecv returns a receive request owned by the rank, ready to post.
//
//go:noinline
func (r *Rank) takeRecv() *Request {
	p := r.records()
	var q *Request
	if n := len(p.recvs); n > 0 {
		q, p.recvs[n-1] = p.recvs[n-1], nil
		p.recvs = p.recvs[:n-1]
	} else {
		q = new(Request)
		p.made++
	}
	q.r, q.isRecv = r, true
	return q
}

// retire ends a blocking call's use of its records, after the call's
// waits have returned and it has read what it received: it releases
// the message its receive q matched, its own message m, and q. Either
// may be nil.
//
//go:noinline
func (r *Rank) retire(m *message, q *Request) {
	p := r.records()
	if q != nil {
		if q.msg != nil {
			p.release(q.msg)
		}
		if !recordNoReuse {
			*q = Request{}
			p.recvs = append(p.recvs, q)
		}
	}
	if m != nil {
		p.release(m)
	}
}

// release drops one of a recycled message's outstanding releases; the
// last one zeroes it and pushes it on the list. A message that is not
// recycled (refs 0) is left alone.
func (p *records) release(m *message) {
	if m.refs == 0 {
		return
	}
	m.refs--
	if m.refs != 0 || recordNoReuse {
		return
	}
	*m = message{}
	p.msgs = append(p.msgs, m)
}

// Sendrecv performs a combined send and receive (the halo-exchange
// staple) and returns the received byte count. Its message and receive
// request are recycled (records).
func (r *Rank) Sendrecv(dst, sendBytes, sendTag, src, recvTag int) int {
	m, q := r.takeMessage(), r.takeRecv()
	m.bytes = sendBytes
	r.isend(m, dst, sendTag, 1)
	r.post(q, src, recvTag)
	r.Wait(q)
	r.waitNoOverhead(&m.req)
	n := q.msg.bytes
	r.retire(m, q)
	return n
}

// probeSend, probeRecvPost, and probeMatch keep the probe's
// interface-call spill slots off the isend/post/matched frames,
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
	m := r.takeMessage()
	m.bytes, m.req.key = bytes, key
	r.isend(m, dst, 0, 1)
	r.waitNoOverhead(&m.req)
	r.retire(m, nil)
}

func (r *Rank) recvColl(src int, key collKey) {
	q := r.takeRecv()
	q.key = key
	r.post(q, src, AnyTag)
	r.Wait(q)
	r.retire(nil, q)
}

func (r *Rank) sendrecvColl(dst, bytes, src int, key collKey) {
	m, q := r.takeMessage(), r.takeRecv()
	m.bytes, m.req.key, q.key = bytes, key, key
	r.isend(m, dst, 0, 1)
	r.post(q, src, AnyTag)
	r.Wait(q)
	r.waitNoOverhead(&m.req)
	r.retire(m, q)
}
