package sim

import (
	"container/heap"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// FuzzKeyedQueueOrder drives a keyed kernel with a random schedule and
// checks every fired event against a reference (time, key) heap kept
// by the test: the queue must fire exactly the minimum pending pair
// each time. The schedule mixes At, AtTagged under arbitrary and
// process-drawn stamps, at-now and future times, and processes that
// Spawn, Sleep, Block and Wake one another. Between events the test
// interleaves PeekTime, PeekKey, RunWindow (whose events may lower the
// bound with LimitWindow) and StepOne, and schedules from outside,
// including before a time that a peek has already refilled the
// queue's lowest bucket at. Its times are a few nanoseconds apart, so
// many events share each timestamp.
func FuzzKeyedQueueOrder(f *testing.F) {
	// Hand-written seeds: lockstep sleepers, late arrivals at the
	// current time, and a schedule below a peeked time.
	f.Add([]byte{7, 7, 7, 7, 4, 20, 4, 20, 5, 5, 3, 2})
	f.Add([]byte{0, 3, 0, 3, 1, 3, 8, 0, 3, 1, 3, 0, 0, 0, 4, 40, 5, 2, 3})
	f.Add([]byte{7, 2, 0, 7, 6, 3, 1, 6, 3, 5, 8, 1, 4, 3, 6, 0, 0, 4, 60})
	addRandomSeeds(f, 22)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := checkQueueOrder(data, true, keyedOffsets); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzKeyedWideQueueOrder is FuzzKeyedQueueOrder with the serial
// fuzzer's times, which spread over many bits: keyed events cross the
// queue's buckets, so refills sort buckets that gathered events from
// several higher ones, and schedules after a peek re-anchor the queue
// while late arrivals are pending.
func FuzzKeyedWideQueueOrder(f *testing.F) {
	// Hand-written seeds: four processes whose at-now wakes take the
	// late heap, and 100 AtTagged events at 1 ns under scrambled
	// stamps, which the refill that reaches them sorts across two
	// chunks.
	f.Add([]byte{7, 7, 7, 7, 6, 0, 4, 5, 0, 0, 5, 0, 3, 8, 2, 8, 3, 5, 5})
	var wide []byte
	for i := 0; i < 100; i++ {
		wide = append(wide, 1, 3, byte(i*37), byte(i*11))
	}
	f.Add(append(wide, 5, 5, 5))
	addRandomSeeds(f, 26)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := checkQueueOrder(data, true, serialOffsets); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzSerialQueueOrder is FuzzKeyedQueueOrder for the serial kernel:
// the queue must fire the minimum pending (time, schedule number) each
// time. Its times spread over many bits, so events cross the queue's
// buckets, and a schedule after a peek can fall before the time the
// peek anchored the queue at.
func FuzzSerialQueueOrder(f *testing.F) {
	// Hand-written seeds: same-time ping-pong between processes, sleeps
	// across high bits, and schedules below a peeked time.
	f.Add([]byte{7, 7, 6, 1, 6, 0, 4, 5, 0, 0, 5, 0, 5, 1, 5})
	f.Add([]byte{0, 7, 0, 6, 0, 5, 8, 0, 8, 2, 8, 3, 4, 7, 5, 5, 5})
	f.Add([]byte{7, 0, 6, 0, 7, 0, 7, 8, 8, 8, 2, 3, 4, 6, 0, 0, 5, 5, 5, 5})
	addRandomSeeds(f, 24)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := checkQueueOrder(data, false, serialOffsets); err != nil {
			t.Fatal(err)
		}
	})
}

// addRandomSeeds adds a dozen pseudo-random schedules to f's corpus.
func addRandomSeeds(f *testing.F, seed uint64) {
	rng := NewRNG(seed)
	for i := 0; i < 12; i++ {
		b := make([]byte, 64+rng.Intn(448))
		for j := range b {
			b[j] = byte(rng.Intn(256))
		}
		f.Add(b)
	}
}

// refEvent is a pending event of the reference model.
type refEvent struct {
	t   Time
	key uint64
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].key < h[j].key
}
func (h refHeap) Swap(i, j int)  { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)    { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() (x any)  { x, *h = (*h)[len(*h)-1], (*h)[:len(*h)-1]; return x }
func (h refHeap) min() *refEvent { return &h[0] }

// queueHarness runs one fuzz schedule. Process bodies run on their
// coroutines, so a mismatch is recorded in err rather than reported
// with t.Fatal; the test loop stops at the first one.
type queueHarness struct {
	k       *Kernel
	data    []byte
	pos     int
	offsets []Duration // what at adds to now
	ref     refHeap
	used    map[uint64]bool // keys of AtTagged events with free stamps
	procs   []*Proc
	expect  map[*Proc]uint64 // key of each process's one pending resume
	err     error
}

// fuzzMaxProcs bounds the processes (each a coroutine) one input makes.
const fuzzMaxProcs = 24

// fuzzArbitraryTag is the lowest tag of events whose stamps are drawn
// freely rather than from a process counter; it lies above every
// process tag so the two never collide.
const fuzzArbitraryTag = 1000

type fuzzEvent struct {
	h   *queueHarness
	key uint64
}

// Fire checks the event against the reference and takes a child
// action: a schedule at or after now, a wake, a spawn, or a lower
// window bound.
func (e *fuzzEvent) Fire() {
	h := e.h
	h.fired(e.key)
	b, ok := h.next()
	if !ok {
		return
	}
	switch b % 8 {
	case 0:
		h.schedAt(h.at())
	case 1:
		h.schedTagged(h.at())
	case 2:
		h.wake(h.at())
	case 3:
		h.spawn()
	case 4:
		h.k.LimitWindow(h.at())
	}
}

func (h *queueHarness) next() (byte, bool) {
	if h.err != nil || h.pos >= len(h.data) {
		return 0, false
	}
	b := h.data[h.pos]
	h.pos++
	return b, true
}

func (h *queueHarness) failf(format string, args ...any) {
	if h.err == nil {
		h.err = fmt.Errorf(format, args...)
	}
}

// Schedule offsets. keyedOffsets are small, so that many events share
// each timestamp; serialOffsets also span many bits, so that events
// land in many of the queue's buckets.
var (
	keyedOffsets  = []Duration{0, 0, 1 * Nanosecond, 1 * Nanosecond, 2 * Nanosecond, 3 * Nanosecond, 5 * Nanosecond, 8 * Nanosecond}
	serialOffsets = []Duration{0, 0, 1, 1 * Nanosecond, 3 * Nanosecond, 4096, Microsecond, Millisecond}
)

// at draws a time at or after now from the harness's offsets.
func (h *queueHarness) at() Time {
	b, _ := h.next()
	return h.k.now.Add(h.offsets[int(b)%len(h.offsets)])
}

func (h *queueHarness) expectAt(t Time, key uint64) {
	heap.Push(&h.ref, refEvent{t, key})
}

// fired pops the reference minimum and compares it with the event the
// kernel is firing.
func (h *queueHarness) fired(key uint64) {
	if len(h.ref) == 0 {
		h.failf("fired (%v, %#x) with no event pending in the reference", h.k.now, key)
		return
	}
	want := heap.Pop(&h.ref).(refEvent)
	if want.t != h.k.now || want.key != key {
		h.failf("fired (%v, %#x), reference expects (%v, %#x)", h.k.now, key, want.t, want.key)
	}
}

func (h *queueHarness) schedAt(t Time) {
	e := &fuzzEvent{h: h}
	h.k.At(t, e.Fire)
	e.key = h.lastKey(nil)
	h.expectAt(t, e.key)
}

// schedTagged schedules under an arbitrary tag and stamp, skipping
// stamps already used so that every pending key is distinct. The
// serial kernel orders the event by schedule number instead.
func (h *queueHarness) schedTagged(t Time) {
	a, _ := h.next()
	b, _ := h.next()
	tag, stamp := fuzzArbitraryTag+int(a%16), uint64(b)<<8|uint64(a)
	for h.used[packKey(tag, stamp)] {
		stamp++
	}
	e := &fuzzEvent{h: h, key: packKey(tag, stamp)}
	h.used[e.key] = true
	h.k.AtTagged(t, tag, stamp, e)
	if !h.k.keyed {
		e.key = h.k.seq
	}
	h.expectAt(t, e.key)
}

// lastKey is the key the kernel gave the event it scheduled last, a
// resume of p or (p nil) anything else.
func (h *queueHarness) lastKey(p *Proc) uint64 {
	switch {
	case !h.k.keyed:
		return h.k.seq
	case p != nil && p.tag >= 0:
		return packKey(p.tag, p.stampCtr)
	default:
		return packKey(-1, h.k.seq)
	}
}

// nextKey is the key the kernel will give the next resume of p.
func (h *queueHarness) nextKey(p *Proc) uint64 {
	switch {
	case !h.k.keyed:
		return h.k.seq + 1
	case p.tag >= 0:
		return packKey(p.tag, p.stampCtr+1)
	default:
		return packKey(-1, h.k.seq+1)
	}
}

// wake resumes a blocked process with no resume in flight, so each
// process has at most one pending resume and its firing is observed
// by its body.
func (h *queueHarness) wake(t Time) {
	b, _ := h.next()
	if len(h.procs) == 0 {
		return
	}
	p := h.procs[int(b)%len(h.procs)]
	if !p.Blocked() || p.resumePending {
		return
	}
	p.WakeAt(t)
	h.expect[p] = h.lastKey(p)
	h.expectAt(t, h.expect[p])
}

// spawn starts a process, tagged or (every fourth) untagged.
func (h *queueHarness) spawn() {
	if len(h.procs) >= fuzzMaxProcs {
		return
	}
	var p *Proc
	if len(h.procs)%4 == 3 {
		p = h.k.Spawn("fuzz", h.body)
	} else {
		p = h.k.SpawnTagged("fuzz", len(h.procs), h.body)
	}
	h.procs = append(h.procs, p)
	h.expect[p] = h.lastKey(p)
	h.expectAt(h.k.now, h.expect[p])
}

func (h *queueHarness) body(p *Proc) {
	h.fired(h.expect[p])
	for {
		b, ok := h.next()
		if !ok {
			return
		}
		switch b % 6 {
		case 0:
			d := h.at().Sub(h.k.now) + Nanosecond
			h.expect[p] = h.nextKey(p)
			h.expectAt(h.k.now.Add(d), h.expect[p])
			p.Sleep(d)
			h.fired(h.expect[p])
		case 1:
			p.Block("fuzz")
			h.fired(h.expect[p])
		case 2:
			h.schedAt(h.at())
		case 3:
			if p.tag < 0 {
				h.schedTagged(h.at())
				continue
			}
			t := h.at()
			stamp := p.NextStamp()
			e := &fuzzEvent{h: h, key: packKey(p.tag, stamp)}
			h.k.AtTagged(t, p.tag, stamp, e)
			if !h.k.keyed {
				e.key = h.k.seq
			}
			h.expectAt(t, e.key)
		case 4:
			h.wake(h.at())
		case 5:
			return
		}
	}
}

// checkPeek compares PeekTime or PeekKey with the reference minimum.
func (h *queueHarness) checkPeek(withKey bool) {
	var t Time
	var key uint64
	var ok bool
	if withKey {
		t, key, ok = h.k.PeekKey()
	} else {
		t, ok = h.k.PeekTime()
	}
	switch {
	case ok != (len(h.ref) > 0):
		h.failf("peek found pending=%v, reference holds %d events", ok, len(h.ref))
	case !ok:
	case t != h.ref.min().t || (withKey && key != h.ref.min().key):
		h.failf("peek (%v, %#x), reference minimum (%v, %#x)", t, key, h.ref.min().t, h.ref.min().key)
	}
}

// checkQueueOrder runs one fuzz schedule on a keyed or serial kernel,
// drawing schedule offsets from offsets.
func checkQueueOrder(data []byte, keyed bool, offsets []Duration) error {
	k := NewKernel()
	h := &queueHarness{k: k, data: data, offsets: offsets, used: map[uint64]bool{}, expect: map[*Proc]uint64{}}
	if keyed {
		k.Keyed()
	}
	defer k.Release()
	for {
		b, ok := h.next()
		if !ok {
			break
		}
		switch b % 9 {
		case 0:
			h.schedAt(h.at())
		case 1:
			h.schedTagged(h.at())
		case 2:
			h.checkPeek(false)
		case 3:
			h.checkPeek(true)
		case 4:
			if err := k.RunWindow(h.at().Add(Nanosecond)); err != nil {
				return err
			}
			if len(h.ref) > 0 && h.ref.min().t < k.winLimit {
				h.failf("window stopped at limit %v with (%v, %#x) pending", k.winLimit, h.ref.min().t, h.ref.min().key)
			}
		case 5:
			stepped, err := k.StepOne()
			if err != nil {
				return err
			}
			if !stepped && len(h.ref) > 0 {
				h.failf("StepOne fired nothing with %d events pending", len(h.ref))
			}
		case 6:
			h.wake(h.at())
		case 7:
			h.spawn()
		case 8:
			// Anchor the queue at the earliest time, then schedule
			// below it.
			h.checkPeek(true)
			if t, ok := k.PeekTime(); ok && t > k.now {
				h.schedAt(k.now.Add(t.Sub(k.now) / 2))
			}
		}
		if h.err != nil {
			return h.err
		}
	}
	for h.err == nil {
		stepped, err := k.StepOne()
		if err != nil {
			return err
		}
		if !stepped {
			break
		}
	}
	if h.err == nil && len(h.ref) > 0 {
		h.failf("kernel drained with %d events pending in the reference", len(h.ref))
	}
	return h.err
}

// TestKeyedQueueStorageBounded pins that a keyed lockstep run reuses
// its queue storage: N processes sleeping in step share every
// timestamp, and a run of 10x the rounds must allocate about what the
// short run does, not queue storage per event fired.
func TestKeyedQueueStorageBounded(t *testing.T) {
	const procs = 512
	run := func(rounds int) uint64 {
		k := NewKernel()
		k.Keyed()
		for i := 0; i < procs; i++ {
			k.SpawnTagged("lockstep", i, func(p *Proc) {
				for r := 0; r < rounds; r++ {
					p.Sleep(Nanosecond)
				}
			})
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	const short, long = 20, 200
	run(short) // warm the runtime's coroutine caches
	a, b := run(short), run(long)
	extraEvents := uint64(procs * (long - short))
	// One event of queue storage is 32 B; allow well under one byte
	// per extra event fired.
	if b > a+extraEvents/4 {
		t.Errorf("%d rounds allocated %d B, %d rounds %d B: queue storage grows with events fired (%d extra)",
			short, a, long, b, extraEvents)
	}
}

// TestQueueNoAllocs pins that the queue allocates nothing per event
// once warm. On the serial kernel it runs at depth 1 (a process pair
// that sleeps and wakes each other) and at about the depth of a
// sweep-contention job: 700 standing events, each rescheduling itself
// at a pseudo-random offset. On a keyed kernel it runs 512 tagged
// processes in lockstep, half of them woken at the current time by
// their higher-tagged partner: those wakes arrive behind the sorted
// bucket of the time being fired, so they take the late heap, and the
// next refill finds its bucket out of order and sorts it. Each case
// warms the kernel with one window, then requires that a second
// window, which takes simulated time across more high bits, fires
// events without a heap allocation.
//
// MemStats.Mallocs counts the whole process, and the runtime's own
// goroutines now and then allocate during a window (the scavenger
// growing its timer heap). So the memory profile runs at rate 1, and
// the window's allocations that it records on stacks with no frame in
// this package are not counted. Everything else is: an allocation the
// profile attributes to this package, and a small object that fits a
// tiny-allocator block already open, which the profile skips.
func TestQueueNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	var recs []runtime.MemProfileRecord
	window := func(t *testing.T, k *Kernel, span Duration) {
		t.Helper()
		if err := k.RunWindow(k.Now().Add(span)); err != nil {
			t.Fatal(err)
		}
		events := k.Events()
		foreign := -foreignAllocs(&recs)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := k.RunWindow(k.Now().Add(span * 4))
		runtime.ReadMemStats(&after)
		foreign += foreignAllocs(&recs)
		if err != nil {
			t.Fatal(err)
		}
		fired := k.Events() - events
		if fired < 1000 {
			t.Fatalf("the measured window fired only %d events", fired)
		}
		if n := int64(after.Mallocs - before.Mallocs); n > foreign {
			t.Errorf("%d events allocated %d objects, %d of them outside package sim; want none inside",
				fired, n, foreign)
		}
	}
	t.Run("depth=1", func(t *testing.T) {
		k := NewKernel()
		defer k.Release()
		var ping, pong *Proc
		ping = k.Spawn("ping", func(p *Proc) {
			for {
				p.Sleep(Nanosecond)
				pong.Wake()
				p.Block("await pong")
			}
		})
		pong = k.Spawn("pong", func(p *Proc) {
			for {
				p.Block("await ping")
				ping.Wake()
			}
		})
		window(t, k, 2*Microsecond)
	})
	t.Run("depth=700", func(t *testing.T) {
		k := NewKernel()
		rng := NewRNG(1)
		var tick func()
		tick = func() { k.After(Duration(rng.Intn(1000)+1)*Nanosecond, tick) }
		for i := 0; i < 700; i++ {
			tick()
		}
		window(t, k, 20*Microsecond)
	})
	t.Run("keyed-lockstep", func(t *testing.T) {
		const procs = 512
		k := NewKernel()
		k.Keyed()
		defer k.Release()
		var ps [procs]*Proc
		for i := range ps {
			ps[i] = k.SpawnTagged("lockstep", i, func(p *Proc) {
				for {
					p.Sleep(Nanosecond)
					if i%2 == 0 {
						p.Block("await partner")
					} else {
						ps[i-1].Wake()
					}
				}
			})
		}
		window(t, k, 4*Nanosecond)
		if cap(k.q.late) == 0 || cap(k.q.sort.chunks) < 2 {
			t.Errorf("late heap capacity %d, sorter chunk capacity %d: the run took no late arrival or sorted no bucket spanning chunks",
				cap(k.q.late), cap(k.q.sort.chunks))
		}
	})
}

// foreignAllocs runs a garbage collection, which publishes the memory
// profile, and returns how many heap objects the profile has recorded
// on stacks with no frame in package sim. recs is reused as the
// profile's buffer.
func foreignAllocs(recs *[]runtime.MemProfileRecord) int64 {
	runtime.GC()
	n, ok := runtime.MemProfile(*recs, true)
	for !ok {
		*recs = make([]runtime.MemProfileRecord, n+n/4)
		n, ok = runtime.MemProfile(*recs, true)
	}
	var sum int64
	for _, r := range (*recs)[:n] {
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if strings.HasPrefix(f.Function, "bgpsim/internal/sim.") {
				break
			}
			if !more {
				sum += r.AllocObjects
				break
			}
		}
	}
	return sum
}
