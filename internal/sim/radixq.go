package sim

import (
	"math/bits"
	"sort"
)

// radixQueue is the kernel's event queue. It fires events in (time,
// key) order, where key is each event's tie-break: the schedule number
// on the serial kernel, the canonical key on keyed kernels (see
// Kernel.keyed).
//
// Over time it is a monotone radix queue. Simulated time never runs
// backwards, so every pending event is at or after last, the time of
// the latest refill, and an event goes into bucket bits.Len64(t ^
// last): bucket 0 holds exactly the events at last, and bucket i > 0
// those whose time first differs from last at bit i-1. Buckets keep
// their events in push order.
//
// Popping takes bucket 0's head. When bucket 0 is empty, refill scans
// the lowest non-empty bucket for its minimum time, makes that the new
// last, and re-appends the bucket's events in their stored order; each
// lands in a lower bucket, since it shares more high bits with the new
// last than with the old. Buckets above it keep their index. Events
// with equal time always share a bucket and move together, so bucket 0
// holds every pending event at last.
//
// Bucket 0 is kept in key order from its head:
//
//   - a refill sorts it in place when it is not already in order.
//     Serial keys grow with every push and buckets keep push order, so
//     on the serial kernel the check always finds bucket 0 sorted;
//   - an event pushed at last with a key below bucket 0's tail (on a
//     keyed kernel, a wake at the current time for a lower-ranked
//     creator) goes into late, a small heap on key, which pop and peek
//     merge against bucket 0's head. Serial keys never go there.
//
// Buckets are lists of fixed-size chunks drawn from a per-queue pool,
// so the queue allocates only when its pending events outgrow every
// chunk it has had, and its storage stays within its peak pending
// events plus one chunk per bucket.
type radixQueue struct {
	last Time
	mask uint64 // bit i is set while bucket i holds events
	hd   int    // index of bucket 0's next event in its head chunk
	b    [64]chunkList
	free *radixChunk // pooled empty chunks

	late []event      // binary min-heap on key, all at last
	sort bucketSorter // sorts bucket 0 (see sortBucket0)
}

// chunkList is a bucket: a FIFO list of chunks. Every chunk but the
// tail is full; n counts the tail's events.
type chunkList struct {
	head, tail *radixChunk
	n          int
}

// radixChunkEvents events and the next pointer fill a 2 KB allocation
// size class.
const radixChunkEvents = 63

type radixChunk struct {
	next *radixChunk
	ev   [radixChunkEvents]event
}

// events returns the events c holds as a chunk of l.
func (l *chunkList) events(c *radixChunk) []event {
	if c == l.tail {
		return c.ev[:l.n]
	}
	return c.ev[:]
}

// push enqueues e, which must not be earlier than last (see reanchor).
// It runs on simulated processes' stacks, so taking a new chunk or a
// late arrival is out of line.
func (q *radixQueue) push(e event) {
	// Times are non-negative, so the index is at most 63; the mask only
	// lets the compiler drop the bounds check.
	i := bits.Len64(uint64(e.t^q.last)) & 63
	l := &q.b[i]
	if i == 0 && q.mask&1 != 0 && e.key < l.tail.ev[l.n-1].key {
		q.pushLate(&e)
		return
	}
	if l.n == radixChunkEvents || l.tail == nil {
		q.grow(l)
	}
	l.tail.ev[l.n] = e
	l.n++
	q.mask |= 1 << i
}

// grow appends an empty chunk to l, from the pool when one is free.
//
//go:noinline
func (q *radixQueue) grow(l *chunkList) {
	c := q.free
	if c != nil {
		q.free = c.next
		c.next = nil
	} else {
		c = new(radixChunk)
	}
	if l.tail == nil {
		l.head = c
	} else {
		l.tail.next = c
	}
	l.tail, l.n = c, 0
}

// move pushes the events of l, a bucket already taken out of the
// queue, from the hd-th on, in their stored order, and returns its
// chunks to the pool one by one as they empty. It is push, inlined by
// hand and without the late check: a refill moves two to three events
// per event fired, and leaves bucket 0's order to sortHead.
func (q *radixQueue) move(l *chunkList, hd int) {
	last, mask := q.last, q.mask
	for c := l.head; c != nil; {
		ev := l.events(c)
		for _, e := range ev[hd:] {
			i := bits.Len64(uint64(e.t^last)) & 63
			b := &q.b[i]
			if b.n == radixChunkEvents || b.tail == nil {
				q.grow(b)
			}
			b.tail.ev[b.n] = e
			b.n++
			mask |= 1 << i
		}
		hd = 0
		next := c.next
		q.recycle(c, len(ev))
		c = next
	}
	q.mask = mask
}

// recycle returns chunk c, whose first n events are set, to the pool.
func (q *radixQueue) recycle(c *radixChunk, n int) {
	clear(c.ev[:n])
	c.next = q.free
	q.free = c
}

// ready reports whether an event at last is pending, refilling bucket
// 0 if none is. It returns false when the queue is empty.
func (q *radixQueue) ready() bool {
	return q.mask&1 != 0 || len(q.late) > 0 || q.refill()
}

// refill moves the lowest non-empty bucket into the buckets below it,
// anchored at its minimum time, which becomes last, and puts bucket 0
// in key order. Bucket 0 and late must be empty.
func (q *radixQueue) refill() bool {
	if q.mask == 0 {
		return false
	}
	i := bits.TrailingZeros64(q.mask)
	l := q.b[i]
	q.b[i] = chunkList{}
	q.mask &^= 1 << i
	m := l.head.ev[0].t
	for c := l.head; c != nil; c = c.next {
		for _, e := range l.events(c) {
			m = min(m, e.t)
		}
	}
	q.last = m
	q.move(&l, 0)
	q.sortHead()
	return true
}

// sortHead checks that bucket 0, just filled by a refill, is in key
// order, and sorts it if not.
func (q *radixQueue) sortHead() {
	l := &q.b[0]
	var prev uint64
	for c := l.head; c != nil; c = c.next {
		for _, e := range l.events(c) {
			if e.key < prev {
				q.sortBucket0()
				return
			}
			prev = e.key
		}
	}
}

// sortBucket0 sorts bucket 0 by key in place, so that the queue keeps
// no copy of the largest bucket it has sorted: the sorter indexes the
// bucket through a list of its chunks.
func (q *radixQueue) sortBucket0() {
	l := &q.b[0]
	s := &q.sort
	s.chunks, s.n = s.chunks[:0], 0
	for c := l.head; c != nil; c = c.next {
		s.chunks = append(s.chunks, c)
		s.n += len(l.events(c))
	}
	sort.Sort(s)
	clear(s.chunks)
}

// bucketSorter is a sort.Interface over the events of a bucket whose
// head chunk starts at its first event.
type bucketSorter struct {
	chunks []*radixChunk
	n      int
}

func (s *bucketSorter) at(i int) *event {
	return &s.chunks[i/radixChunkEvents].ev[i%radixChunkEvents]
}

func (s *bucketSorter) Len() int           { return s.n }
func (s *bucketSorter) Less(i, j int) bool { return s.at(i).key < s.at(j).key }
func (s *bucketSorter) Swap(i, j int)      { a, b := s.at(i), s.at(j); *a, *b = *b, *a }

// lateFirst reports whether late holds the earliest pending event:
// its minimum precedes bucket 0's head, or bucket 0 is empty.
func (q *radixQueue) lateFirst() bool {
	return len(q.late) > 0 && (q.mask&1 == 0 || q.late[0].key < q.b[0].head.ev[q.hd].key)
}

// peek returns the earliest pending event, refilling bucket 0 if no
// event at last is pending. The second result is false when the queue
// is empty.
func (q *radixQueue) peek() (*event, bool) {
	if !q.ready() {
		return nil, false
	}
	if q.lateFirst() {
		return &q.late[0], true
	}
	return &q.b[0].head.ev[q.hd], true
}

// pop dequeues the earliest pending event.
func (q *radixQueue) pop() (event, bool) {
	if !q.ready() {
		return event{}, false
	}
	if q.lateFirst() {
		return q.popLate(), true
	}
	l := &q.b[0]
	c := l.head
	e := c.ev[q.hd]
	q.hd++
	if c == l.tail {
		if q.hd == l.n {
			// Bucket 0 is empty. Reset it now, before the event fires,
			// so that a same-time schedule from the handler refills
			// its chunk from the start instead of chaining a new one:
			// a same-time ping-pong then reuses one chunk forever. The
			// spent entries are not cleared; the next events at the
			// front of the queue overwrite them.
			q.hd, l.n = 0, 0
			q.mask &^= 1
		}
	} else if q.hd == radixChunkEvents {
		q.hd = 0
		l.head = c.next
		q.recycle(c, radixChunkEvents)
	}
	return e, true
}

// reanchor lowers last to t, which precedes every pending event. A
// peek makes that possible: the refill it performs can move last past
// the kernel's clock before a schedule at an earlier time. Let bit h
// be the highest in which t and the old last differ; t has 0 there,
// the old last 1. The buckets above h+1 keep their events. Bucket h+1
// is empty: its events would differ from the old last first at bit h,
// and, being later, have 1 there. Buckets 0 through h merge into it,
// each walked in its stored order, so equal times keep their order,
// and late follows them there; the next refill that reaches them
// sorts them again.
//
//go:noinline
func (q *radixQueue) reanchor(t Time) {
	h := bits.Len64(uint64(t^q.last)) - 1
	q.last = t
	hd := q.hd
	q.hd = 0
	for i := 0; i <= h; i++ {
		if q.mask&(1<<i) == 0 {
			continue
		}
		l := q.b[i]
		q.b[i] = chunkList{}
		q.mask &^= 1 << i
		q.move(&l, hd)
		hd = 0
	}
	for _, e := range q.late {
		q.push(e)
	}
	clear(q.late)
	q.late = q.late[:0]
}

// pushLate adds *e, an event at last, to the late heap. It takes a
// pointer so that push keeps its small frame.
//
//go:noinline
func (q *radixQueue) pushLate(e *event) {
	h := append(q.late, *e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].key <= h[i].key {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	q.late = h
}

// popLate dequeues the late heap's minimum.
func (q *radixQueue) popLate() event {
	h := q.late
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{}
	h = h[:n]
	q.late = h
	for i := 0; ; {
		m := i
		if l := 2*i + 1; l < n && h[l].key < h[m].key {
			m = l
		}
		if r := 2*i + 2; r < n && h[r].key < h[m].key {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return top
}
