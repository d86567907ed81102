package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Handler is what an event runs when it fires. A process is one (its
// resume events carry the *Proc), and model layers make their own
// records handlers so that scheduling one allocates nothing beyond the
// record itself: an event stores the receiver pointer instead of a
// closure capturing it.
type Handler interface {
	Fire()
}

// Func adapts a plain callback to Handler. A func value is a single
// pointer, so converting one to a Handler does not allocate.
type Func func()

// Fire calls f.
func (f Func) Fire() { f() }

// event is a scheduled handler. The queue fires events in (t, key)
// order, which makes runs deterministic. key is the schedule number on
// the serial kernel, so events with equal timestamps fire in schedule
// order, and the canonical (creator tag, stamp) key on keyed kernels.
type event struct {
	t   Time
	key uint64
	h   Handler
}

// Kernel is a discrete-event simulation engine. It fires events in
// timestamp order, and events with equal timestamps in the order they
// were scheduled (on keyed kernels, in canonical-key order; see
// Keyed). A Kernel is not safe for concurrent use; all interaction
// must happen from the goroutine that calls Run or from process bodies
// (which the kernel serializes). Distinct Kernels share no state, so
// independent simulations may run concurrently on separate goroutines
// (see internal/runner).
type Kernel struct {
	now   Time
	seq   uint64
	fired uint64

	// q is the event queue: a monotone radix queue that fires events
	// in (time, key) order (see radixQueue). Every pending event is at
	// or after q.last, and q.last is at or after now.
	q radixQueue

	procs    []*Proc
	live     int // spawned processes that have not finished
	stopped  bool
	abortErr error // set by Abort; Run returns it after the current event

	// winLimit bounds RunWindow: events at or beyond it stay queued.
	// LimitWindow may lower it while a window is executing (the sharded
	// kernel caps a shard the moment a rank enters a collective gate).
	winLimit Time

	// uncounted tracks fired events that exist only as cross-shard
	// plumbing (a rendezvous sender-completion executed on the sender's
	// shard, which the serial kernel performs inside the receiver's
	// completion event). CountedEvents subtracts them so Result.Events
	// is byte-identical at any shard count.
	uncounted uint64

	// keyed switches same-timestamp ordering from creation order (the
	// schedule number) to a canonical key derived from the event's
	// creator: the packed (creator tag, per-creator stamp) pair.
	// Creation order depends on how ranks are partitioned across shard
	// kernels — a message delivery scheduled through the inter-shard
	// mailbox gets its schedule number at barrier time, not at send
	// time — but each creator's own stamp sequence is a function of
	// that rank's execution alone, so keyed ordering is identical at
	// every shard count. Sharded runs enable it on every shard kernel;
	// the serial kernel keeps schedule order and its seed-pinned
	// outputs. keyed chooses only the key (keyFor): both orders share
	// one queue.
	keyed bool

	// EventLimit, when nonzero, aborts Run with an error after this
	// many events have fired. It is a safety net against model bugs
	// that schedule unboundedly.
	EventLimit uint64

	// Probe, when non-nil, observes process block/unblock transitions.
	// It must be set before Run. A nil Probe costs one pointer compare
	// per process switch, all paid inside the event loop's own frame;
	// probe callbacks must not schedule events or otherwise advance
	// virtual time.
	Probe Probe
}

// Probe observes process scheduling. Higher layers (the obs package)
// implement a superset of this interface; the kernel only needs the
// block edges. The tag identifies the logical owner of the process —
// the MPI layer sets it to the rank id — and is -1 for untagged
// processes.
type Probe interface {
	ProcBlock(tag int, reason, detail string, t Time)
	ProcUnblock(tag int, t Time)
}

// NewKernel returns a kernel with the clock at zero.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Events returns the number of events fired so far. (After a normal
// Run every scheduled event has fired, so this also equals the number
// scheduled; mid-run or after an EventLimit abort the two differ.)
func (k *Kernel) Events() uint64 { return k.fired }

// keyStampBits is the width of the per-creator stamp in a packed
// canonical key; the creator tag occupies the bits above it. 2^40
// stamps per rank and 2^23 ranks are both far beyond any modeled run.
const keyStampBits = 40

// packKey builds the canonical same-timestamp ordering key for keyed
// kernels. Tags are global rank ids; untagged creators (-1) pack to
// the lowest band so coordinator-owned events sort first.
func packKey(tag int, stamp uint64) uint64 {
	return uint64(tag+1)<<keyStampBits | (stamp & (1<<keyStampBits - 1))
}

// keyFor allocates the ordering key of an event with handler h. On the
// serial kernel it is the next schedule number. On a keyed kernel a
// resume is keyed by the resumed process, anything else (and an
// untagged process) by the kernel's own counter, which sharded runs
// never exercise on rank-visible paths.
func (k *Kernel) keyFor(h Handler) uint64 {
	if k.keyed {
		if p, ok := h.(*Proc); ok && p.tag >= 0 {
			p.stampCtr++
			return packKey(p.tag, p.stampCtr)
		}
		k.seq++
		return packKey(-1, k.seq)
	}
	k.seq++
	return k.seq
}

// schedule enqueues handler h at absolute time t. Scheduling in the
// past panics: it would break causality.
func (k *Kernel) schedule(t Time, h Handler) {
	if t < k.q.last {
		k.before(t)
	}
	k.q.push(event{t: t, key: k.keyFor(h), h: h})
}

// before handles a schedule earlier than the queue's anchor: it panics
// if t is in the past, and otherwise re-anchors the queue at t (the
// anchor runs ahead of the clock only after a peek). Out of line for
// the same reason as pastEvent.
//
//go:noinline
func (k *Kernel) before(t Time) {
	if t < k.now {
		k.pastEvent(t)
	}
	k.q.reanchor(t)
}

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: it would break causality.
func (k *Kernel) At(t Time, fn func()) { k.schedule(t, Func(fn)) }

// AtTagged schedules handler h at time t under an explicit canonical
// key: the creator's rank tag and a stamp drawn from that creator's
// counter (Proc.NextStamp). The MPI layer uses it for events whose
// creator is not the kernel's running process — a message delivery
// created by the sender but fired on the receiver's kernel — so the
// event sorts at the same canonical position whether it was scheduled
// locally or through the inter-shard mailbox. On a non-keyed kernel it
// schedules in creation order, like At.
func (k *Kernel) AtTagged(t Time, tag int, stamp uint64, h Handler) {
	if !k.keyed {
		k.schedule(t, h)
		return
	}
	if t < k.q.last {
		k.before(t)
	}
	k.q.push(event{t: t, key: packKey(tag, stamp), h: h})
}

// pastEvent panics on an event scheduled before now. It is kept out of
// line so the fmt call's frame stays off schedule and AtTagged, which
// run on simulated processes' stacks (a message delivery is scheduled
// from the sending rank's deepest frame).
//
//go:noinline
func (k *Kernel) pastEvent(t Time) {
	panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
}

// Keyed switches the kernel to canonical same-timestamp ordering (see
// the keyed field). It must be called before any event is scheduled:
// mixing schedule numbers and canonical keys in one queue would
// interleave them arbitrarily.
func (k *Kernel) Keyed() {
	if k.fired > 0 || k.seq > 0 {
		panic("sim: Keyed must be called on a fresh kernel")
	}
	k.keyed = true
}

// After schedules fn to run d from now. Negative d panics.
func (k *Kernel) After(d Duration, fn func()) { k.At(k.now.Add(d), fn) }

// atResume schedules process p to resume at time t without allocating
// a closure. A *blocked* process has at most one undelivered resume:
// the first scheduled wins and later calls are ignored until it is
// delivered. Every legitimate wait has exactly one waker, so the guard
// never changes a healthy run; it exists for the fault-recovery layer,
// where a node death may try to wake a rank whose gate release (or
// message completion) is already in flight — a second resume event
// would spuriously release the rank's next wait. A resume for a
// process that is not blocked is always queued: a wake may
// legitimately race the target's own Block — or even its Spawn — in
// the same timestamp, and must be delivered once the target blocks.
func (k *Kernel) atResume(t Time, p *Proc) {
	if p.resumePending && p.blocked != "" {
		return
	}
	p.resumePending = true
	k.schedule(t, p)
}

// BlockedProc describes one blocked process of a deadlock report.
type BlockedProc struct {
	Name   string // process name given at Spawn
	Reason string // what the process is waiting on
	Since  Time   // when it blocked (when the stall began)
}

// String formats the process as "name (reason, blocked since t)".
func (b BlockedProc) String() string {
	return fmt.Sprintf("%s (%s, blocked since %v)", b.Name, b.Reason, b.Since)
}

// DeadlockError reports that the event queue drained while processes
// were still blocked — the simulated program can make no further
// progress (for example, an MPI receive with no matching send). Time
// is when the last event fired; each blocked process carries the
// timestamp at which it stalled, so the report distinguishes the
// process that has been stuck since the start from the one that
// blocked on the final event.
type DeadlockError struct {
	Time    Time // when the last event fired (the queue-drain time)
	Blocked []BlockedProc
	// Note is optional context a higher layer appends to the report —
	// the MPI fault layer uses it to name the dead ranks the blocked
	// processes are most likely waiting on. Empty when no layer had
	// anything to add.
	Note string
}

func (e *DeadlockError) Error() string {
	descs := make([]string, len(e.Blocked))
	for i, b := range e.Blocked {
		descs[i] = b.String()
	}
	s := fmt.Sprintf("sim: deadlock: last event at %v, %d process(es) blocked: %s",
		e.Time, len(e.Blocked), strings.Join(descs, "; "))
	if e.Note != "" {
		s += " [" + e.Note + "]"
	}
	return s
}

// PanicError reports a process body that panicked. The kernel recovers
// the panic, aborts the run, and returns this from Run instead of
// crashing the whole program — one sick simulation in a concurrent
// sweep must not take down its siblings.
type PanicError struct {
	Proc  string // name of the panicking process
	Value any    // the recovered panic value
	Stack []byte // goroutine stack at the panic site
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sim: process %q panicked: %v\n%s", e.Proc, e.Value, e.Stack)
}

// failPanic carries a model error out of a process body to the spawn
// wrapper, which aborts the kernel with exactly that error (no
// PanicError wrapping, no stack dump).
type failPanic struct{ err error }

// Fail aborts the simulation with err from within a process body: the
// process unwinds, the kernel stops after the current event, and Run
// returns err. It is how model layers surface typed simulation errors
// (a failed rank, a partitioned torus) from code whose programming
// model has no error returns.
func Fail(err error) { panic(failPanic{err}) }

// Abort makes Run return err after the currently firing event
// completes. The first abort wins; a nil err is ignored. Safe to call
// from event callbacks and process bodies.
func (k *Kernel) Abort(err error) {
	if k.abortErr == nil && err != nil {
		k.abortErr = err
	}
}

// Live returns the number of spawned processes that have not finished.
func (k *Kernel) Live() int { return k.live }

// next dequeues the globally minimal pending event. The second result
// is false when no event is pending.
func (k *Kernel) next() (event, bool) {
	return k.q.pop()
}

// Run fires events in timestamp order until the queue drains. It
// returns nil when every spawned process has finished, and a
// *DeadlockError when the queue drains with processes still blocked.
// On every error return — a deadlock, an abort, an exceeded event
// limit — the unfinished processes are released (see Release) after
// the error is built, so a failed run leaves no coroutine behind.
func (k *Kernel) Run() error {
	if k.stopped {
		return fmt.Errorf("sim: kernel already ran")
	}
	for {
		e, ok := k.next()
		if !ok {
			break
		}
		if err := k.fire(e); err != nil {
			k.Release()
			return err
		}
	}
	k.stopped = true
	if k.live > 0 {
		blocked := k.BlockedProcs()
		sort.Slice(blocked, func(i, j int) bool {
			if blocked[i].Name != blocked[j].Name {
				return blocked[i].Name < blocked[j].Name
			}
			return blocked[i].Since < blocked[j].Since
		})
		k.Release()
		return &DeadlockError{Time: k.now, Blocked: blocked}
	}
	return nil
}

// Release ends the run for every process that has not finished: each
// coroutine is stopped, and a suspended body unwinds from its
// suspension point, running its deferred calls, without resuming,
// aborting the kernel, or firing probe hooks. Released processes still
// count as unfinished (Live, BlockedProcs). The kernel cannot run
// again. Run releases on its own error returns; a caller that drives
// the kernel through RunWindow or StepOne (the sharded coordinator)
// calls Release when it gives the run up.
func (k *Kernel) Release() {
	k.stopped = true
	for _, p := range k.procs {
		if p.stop != nil { // started and unfinished
			p.stop()
		}
	}
}

// PeekTime returns the timestamp of the earliest pending event without
// dequeuing it. The second result is false when no event is pending.
// It may refill the queue's lowest bucket, which moves the queue's
// anchor to that time (and on a keyed kernel may sort that bucket); a
// later schedule before it re-anchors the queue.
func (k *Kernel) PeekTime() (Time, bool) {
	e, ok := k.q.peek()
	if !ok {
		return 0, false
	}
	return e.t, true
}

// PeekKey returns the timestamp and ordering key of the earliest
// pending event without dequeuing it: the canonical key on a keyed
// kernel, the schedule number on the serial one. The sharded
// coordinator compares (time, key) across shard kernels to pick the
// globally canonical next event when every shard is gated. The third
// result is false when no event is pending. Like PeekTime, it may
// refill the queue's lowest bucket.
func (k *Kernel) PeekKey() (Time, uint64, bool) {
	e, ok := k.q.peek()
	if !ok {
		return 0, 0, false
	}
	return e.t, e.key, true
}

// fire executes one dequeued event and applies the abort and
// event-limit checks shared by Run, RunWindow, and StepOne. It returns
// a non-nil error when the run must end now.
func (k *Kernel) fire(e event) error {
	k.now = e.t
	// Process resumes and plain callbacks are the common events: call
	// them directly rather than through the interface.
	switch h := e.h.(type) {
	case *Proc:
		k.runProc(h)
	case Func:
		h()
	default:
		h.Fire()
	}
	k.fired++
	if k.abortErr != nil {
		k.stopped = true
		return k.abortErr
	}
	if k.EventLimit > 0 && k.fired > k.EventLimit {
		k.stopped = true
		return fmt.Errorf("sim: event limit %d exceeded at %v", k.EventLimit, k.now)
	}
	return nil
}

// RunWindow fires pending events with timestamps strictly below limit,
// then returns nil with the kernel paused (not stopped): further
// windows, StepOne calls, or externally scheduled events may follow.
// The limit is live — an event body may lower it through LimitWindow
// and the loop honors the new bound immediately. Errors (abort, event
// limit) end the run exactly as in Run.
func (k *Kernel) RunWindow(limit Time) error {
	if k.stopped {
		return fmt.Errorf("sim: kernel already ran")
	}
	k.winLimit = limit
	for {
		t, ok := k.PeekTime()
		if !ok || t >= k.winLimit {
			return nil
		}
		e, _ := k.next()
		if err := k.fire(e); err != nil {
			return err
		}
	}
}

// LimitWindow lowers the current window bound so that no further event
// at or beyond t fires in this window. Raising the bound is not
// allowed — the caller owns the upper limit. Safe to call from event
// bodies during RunWindow.
func (k *Kernel) LimitWindow(t Time) {
	if t < k.winLimit {
		k.winLimit = t
	}
}

// StepOne fires exactly one pending event, ignoring any window bound.
// It returns (false, nil) when no event is pending. The sharded
// coordinator uses it to execute the globally minimal event when every
// shard is gated — the conservative-window equivalent of the serial
// kernel taking its next step.
func (k *Kernel) StepOne() (bool, error) {
	if k.stopped {
		return false, fmt.Errorf("sim: kernel already ran")
	}
	e, ok := k.next()
	if !ok {
		return false, nil
	}
	return true, k.fire(e)
}

// Uncount marks the currently firing event as bookkeeping-only: it is
// excluded from CountedEvents. Cross-shard plumbing events that have no
// serial-kernel counterpart call it so event totals stay identical at
// any shard count.
func (k *Kernel) Uncount() { k.uncounted++ }

// CountedEvents returns the fired-event count minus events marked with
// Uncount.
func (k *Kernel) CountedEvents() uint64 { return k.fired - k.uncounted }

// BlockedProcs returns the blocked-process reports of all unfinished
// processes, unsorted. The sharded coordinator merges these across
// shard kernels into one DeadlockError.
func (k *Kernel) BlockedProcs() []BlockedProc {
	var blocked []BlockedProc
	for _, p := range k.procs {
		if !p.done {
			blocked = append(blocked, p.blockedInfo())
		}
	}
	return blocked
}

// Drained reports whether no events are pending.
func (k *Kernel) Drained() bool {
	_, ok := k.PeekTime()
	return !ok
}

// runProc switches to p's coroutine and returns when p suspends again
// (blocks, sleeps) or its body returns.
//
// The bookkeeping of Block lives here, on the event loop's side of the
// coroutine switch, rather than inside Proc.Block, which must stay
// inlinable (see its comment). A resumed process with a non-empty
// blocked reason is waking from Block: the loop fires ProcUnblock and
// clears the reason. A suspension that leaves the reason set is a
// Block taking effect (Sleep and process exit never set it): the loop
// stamps when it began and fires ProcBlock. The observed event order
// is identical to in-Block hooks because nothing runs between a
// process's suspension and this loop, or between the switch and the
// process continuing.
func (k *Kernel) runProc(p *Proc) {
	p.resumePending = false
	if p.done {
		// The process unwound (a dead rank under fault recovery) while
		// this resume was in flight; there is no coroutine to switch
		// to.
		return
	}
	if p.blocked != "" {
		if k.Probe != nil {
			k.Probe.ProcUnblock(p.tag, k.now)
		}
		p.blocked, p.blockedDetail = "", ""
	}
	if p.next == nil {
		p.start() // first resume
	}
	p.next()
	if p.blocked != "" {
		p.blockedSince = k.now
		if k.Probe != nil {
			k.Probe.ProcBlock(p.tag, p.blocked, p.blockedDetail, k.now)
		}
	}
}
