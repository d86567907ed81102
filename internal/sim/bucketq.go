package sim

import (
	"cmp"
	"slices"
)

// bucketQueue is the event queue of keyed kernels (Kernel.Keyed). It
// fires events in (time, canonical key) order, the same order a heap
// over that pair would, but it is shaped for lockstep parallel
// programs, where tens of thousands of events share each timestamp:
//
//   - a small binary heap (times) holds one bucket per distinct
//     pending time;
//   - a bucket collects its events unsorted, appended into chunks drawn
//     from a per-queue pool, so scheduling never compares keys and a
//     finished bucket's storage is reused rather than reallocated;
//   - the earliest bucket is opened by moving its events into one
//     reusable slice (cur) and sorting it by key once;
//   - events scheduled at the open time after it opened go to a small
//     key-ordered heap (late), merged against cur on every take.
//
// Every bucket in times is later than the open time. A schedule before
// the open time (a peek opened a bucket early, then barrier mail
// arrived for an earlier time) puts the open bucket's remaining events
// back into the queue first.
type bucketQueue struct {
	times  []*bucket // binary min-heap on bucket time
	byTime map[Time]*bucket
	last   *bucket // bucket of the latest push: lockstep pushes repeat it

	open  bool
	openT Time
	cur   []keyedEvent // the open bucket sorted by key; cur[head:] pending
	head  int
	late  []keyedEvent // binary min-heap on key, all at openT

	free    [chunkClasses]*chunk // pooled empty chunks by size class
	buckets []*bucket            // pooled empty buckets
}

// keyedEvent is an event inside a bucket, which holds its time.
type keyedEvent struct {
	key uint64
	h   Handler
}

// A bucket's i-th chunk holds minChunk<<i events, up to the largest
// class, so a bucket's storage stays within about twice its events
// whether it holds one event or a hundred thousand.
const (
	minChunk     = 16
	chunkClasses = 7 // 16 .. 1024 events per chunk
)

type chunk struct {
	ev   []keyedEvent
	next *chunk
}

type bucket struct {
	t          Time
	head, tail *chunk
	chunks     int
}

func chunkClass(i int) int { return min(i, chunkClasses-1) }

// ready reports whether the open bucket still holds events.
func (q *bucketQueue) ready() bool {
	return q.open && (q.head < len(q.cur) || len(q.late) > 0)
}

// push enqueues h at time t under key. It runs on simulated processes'
// stacks, so everything off the common path (a new bucket, a new
// chunk, reopening) is out of line.
func (q *bucketQueue) push(t Time, key uint64, h Handler) {
	if q.open && t <= q.openT {
		if t == q.openT {
			q.pushLate(keyedEvent{key, h})
			return
		}
		q.reclose()
	}
	b := q.last
	if b == nil || b.t != t {
		b = q.bucketAt(t)
	}
	q.add(b, keyedEvent{key, h})
}

// bucketAt returns the bucket for time t, creating it if needed, and
// makes it the push cache.
//
//go:noinline
func (q *bucketQueue) bucketAt(t Time) *bucket {
	b := q.byTime[t]
	if b == nil {
		if n := len(q.buckets); n > 0 {
			b = q.buckets[n-1]
			q.buckets = q.buckets[:n-1]
		} else {
			b = new(bucket)
		}
		b.t = t
		if q.byTime == nil {
			q.byTime = make(map[Time]*bucket)
		}
		q.byTime[t] = b
		q.pushTime(b)
	}
	q.last = b
	return b
}

// grow appends an empty chunk to b, from the pool when one is free.
//
//go:noinline
func (q *bucketQueue) grow(b *bucket) *chunk {
	cl := chunkClass(b.chunks)
	c := q.free[cl]
	if c != nil {
		q.free[cl] = c.next
		c.next = nil
	} else {
		c = &chunk{ev: make([]keyedEvent, 0, minChunk<<cl)}
	}
	if b.tail == nil {
		b.head = c
	} else {
		b.tail.next = c
	}
	b.tail = c
	b.chunks++
	return c
}

// openNext opens the earliest bucket: its events move into cur, sorted
// by key, and its chunks return to the pool. The open bucket must be
// exhausted. It returns false when no bucket is pending.
func (q *bucketQueue) openNext() bool {
	clear(q.cur)
	q.cur, q.head = q.cur[:0], 0
	if len(q.times) == 0 {
		q.open = false
		return false
	}
	b := q.popTime()
	delete(q.byTime, b.t)
	if q.last == b {
		q.last = nil
	}
	for i, c := 0, b.head; c != nil; i++ {
		q.cur = append(q.cur, c.ev...)
		clear(c.ev)
		c.ev = c.ev[:0]
		next := c.next
		cl := chunkClass(i)
		c.next = q.free[cl]
		q.free[cl] = c
		c = next
	}
	slices.SortFunc(q.cur, func(a, b keyedEvent) int { return cmp.Compare(a.key, b.key) })
	q.open, q.openT = true, b.t
	*b = bucket{}
	q.buckets = append(q.buckets, b)
	return true
}

// reclose puts the open bucket's pending events back into the queue,
// so that an event earlier than the open time can be scheduled.
//
//go:noinline
func (q *bucketQueue) reclose() {
	q.open = false
	if q.head == len(q.cur) && len(q.late) == 0 {
		return
	}
	b := q.bucketAt(q.openT)
	for _, e := range q.cur[q.head:] {
		q.add(b, e)
	}
	for _, e := range q.late {
		q.add(b, e)
	}
	clear(q.late)
	q.late = q.late[:0]
	q.head = len(q.cur)
}

// add appends e to bucket b.
func (q *bucketQueue) add(b *bucket, e keyedEvent) {
	c := b.tail
	if c == nil || len(c.ev) == cap(c.ev) {
		c = q.grow(b)
	}
	n := len(c.ev)
	c.ev = c.ev[:n+1]
	c.ev[n] = e
}

// peekTime returns the earliest pending time without opening a bucket.
func (q *bucketQueue) peekTime() (Time, bool) {
	if q.ready() {
		return q.openT, true
	}
	if len(q.times) > 0 {
		return q.times[0].t, true
	}
	return 0, false
}

// peekKey returns the earliest pending (time, key), opening the
// earliest bucket if the open one is exhausted.
func (q *bucketQueue) peekKey() (Time, uint64, bool) {
	if !q.ready() && !q.openNext() {
		return 0, 0, false
	}
	if len(q.late) > 0 && (q.head == len(q.cur) || q.late[0].key < q.cur[q.head].key) {
		return q.openT, q.late[0].key, true
	}
	return q.openT, q.cur[q.head].key, true
}

// pop dequeues the earliest pending event.
func (q *bucketQueue) pop() (event, bool) {
	if !q.ready() && !q.openNext() {
		return event{}, false
	}
	var e keyedEvent
	if len(q.late) > 0 && (q.head == len(q.cur) || q.late[0].key < q.cur[q.head].key) {
		e = q.popLate()
	} else {
		e = q.cur[q.head]
		q.head++
	}
	return event{t: q.openT, seq: e.key, h: e.h}, true
}

func (q *bucketQueue) pushTime(b *bucket) {
	h := append(q.times, b)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].t <= h[i].t {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	q.times = h
}

func (q *bucketQueue) popTime() *bucket {
	h := q.times
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	h = h[:n]
	q.times = h
	for i := 0; ; {
		m := i
		if l := 2*i + 1; l < n && h[l].t < h[m].t {
			m = l
		}
		if r := 2*i + 2; r < n && h[r].t < h[m].t {
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

func (q *bucketQueue) pushLate(e keyedEvent) {
	h := append(q.late, e)
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

func (q *bucketQueue) popLate() keyedEvent {
	h := q.late
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = keyedEvent{}
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
