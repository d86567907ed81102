package sim

import (
	"fmt"
	"runtime/debug"
	"strconv"
)

// Proc is a logical process: a coroutine whose execution is
// serialized by the kernel. Model code inside a process body may freely
// read and mutate shared model state without locks, because the kernel
// guarantees only one process (or event callback) runs at a time: the
// event loop resumes a process by switching to its coroutine and
// continues only once the process suspends again or finishes, so every
// handoff is a direct switch with a happens-before edge in each
// direction, even when successive resumes come from different
// goroutines (as the sharded kernels' windows do).
type Proc struct {
	k    *Kernel
	name string // the whole name, or its prefix when numbered

	// body is the process function until its first resume creates the
	// coroutine (start). Creating it there rather than at spawn means a
	// process never sits on a fresh, unstarted stack: a model that
	// spawns every rank up front would otherwise hold one per rank
	// until the kernel reaches it, and the garbage collector shrinks
	// such idle stacks only for them to grow again on their first run.
	body func(p *Proc)

	// next resumes the coroutine until the process suspends or its body
	// returns; suspend is the coroutine's side of the same switch; stop
	// unwinds a suspended coroutine for good (Kernel.Release). All three
	// are dropped once the process finishes or is released, so a
	// finished process holds no coroutine.
	next    func() (struct{}, bool)
	suspend func(struct{}) bool
	stop    func()

	done          bool
	resumePending bool   // a resume event is scheduled and undelivered
	numbered      bool   // the name is name followed by the tag (SpawnNumbered)
	blocked       string // non-empty while waiting on a condition (diagnostics)
	blockedDetail string // optional reason suffix (BlockWith)
	blockedSince  Time   // when the current Block began (diagnostics)

	tag int // probe identity (rank id); -1 when untagged

	// stampCtr numbers the events this process creates, in program
	// order. On keyed kernels (Kernel.Keyed) the pair (tag, stampCtr)
	// is the canonical same-timestamp ordering key: it depends only on
	// the process's own execution, never on how ranks are sharded.
	stampCtr uint64
}

// NextStamp draws the next canonical-ordering stamp from the process's
// counter — the same counter the kernel uses for the process's own
// resume events, so stamps stay unique per tag. Model code passes it
// to Kernel.AtTagged when it schedules an event on this process's
// behalf from outside the process body.
func (p *Proc) NextStamp() uint64 {
	p.stampCtr++
	return p.stampCtr
}

// Fire resumes the process: a process is the Handler of its own resume
// events (Sleep, Wake, Spawn). Model code resumes a process with Wake
// or WakeAt, never by calling Fire.
func (p *Proc) Fire() { p.k.runProc(p) }

// Spawn creates a process executing fn, starting at the current
// virtual time. The name is used in deadlock diagnostics.
//
// A panic inside fn does not crash the program: the wrapper recovers
// it, aborts the kernel with a *PanicError (or, for Fail, the carried
// error itself), and Run returns that error.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	return k.SpawnTagged(name, -1, fn)
}

// SpawnTagged is Spawn with the probe tag set before the start event
// is scheduled. Keyed kernels need the tag at spawn time: the start
// event's canonical key is drawn from the process's own counter, and
// an untagged process would fall back to the kernel-local sequence,
// which is not stable across shard counts.
func (k *Kernel) SpawnTagged(name string, tag int, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name, tag: tag, body: fn}
	k.procs = append(k.procs, p)
	k.live++
	k.atResume(k.now, p)
	return p
}

// SpawnNumbered is SpawnTagged for a process named prefix followed by
// its tag in decimal, such as "rank 12". The name is rendered only when
// something asks for it (Name, a deadlock or panic report), so a model
// that spawns one process per rank builds no string per rank.
func (k *Kernel) SpawnNumbered(prefix string, tag int, fn func(p *Proc)) *Proc {
	p := k.SpawnTagged(prefix, tag, fn)
	p.numbered = true
	return p
}

// released is the panic that unwinds a process stopped by
// Kernel.Release. The spawn wrapper swallows it: a released process
// neither aborts the kernel nor counts as finished.
type released struct{}

// finish is the spawn wrapper's exit path, run deferred inside the
// coroutine with the body's recovered panic value (nil on a normal
// return). A panic aborts the kernel with a *PanicError (or, for Fail,
// the carried error itself); the release sentinel ends the coroutine
// silently.
func (p *Proc) finish(r any) {
	p.next, p.suspend, p.stop = nil, nil, nil
	if _, ok := r.(released); ok {
		return
	}
	if r != nil {
		if fp, ok := r.(failPanic); ok {
			p.k.Abort(fp.err)
		} else {
			p.k.Abort(&PanicError{Proc: p.Name(), Value: r, Stack: debug.Stack()})
		}
	}
	p.done = true
	p.k.live--
}

// Kernel returns the kernel this process runs under.
func (p *Proc) Kernel() *Kernel { return p.k }

// Name returns the process name given at Spawn (for SpawnNumbered, the
// prefix followed by the tag).
func (p *Proc) Name() string {
	if p.numbered {
		return p.name + strconv.Itoa(p.tag)
	}
	return p.name
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// yield suspends the process and returns control to the event loop.
// The process resumes when Kernel.runProc switches back to it from a
// scheduled event. A false return from suspend means Kernel.Release
// stopped the coroutine: the process unwinds instead of resuming.
func (p *Proc) yield() {
	if !p.suspend(struct{}{}) {
		panic(released{})
	}
}

// Sleep advances the process's virtual time by d. Negative d panics.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %v", d))
	}
	if d == 0 {
		return
	}
	p.k.atResume(p.k.now.Add(d), p)
	p.yield()
}

// SleepUntil advances the process's virtual time to t, which must not
// be in the past.
func (p *Proc) SleepUntil(t Time) {
	p.Sleep(t.Sub(p.k.now))
}

// Block suspends the process until another process or event callback
// calls Wake. The reason string appears in deadlock reports.
//
// Block and BlockWith MUST stay inlinable (like yield): they sit at
// the deepest point of every rank coroutine's stack, and outlining
// them adds a frame that tips thousands of fresh stacks into growth.
// yield's indirect call to the coroutine switch takes most of the
// inlining budget, so everything else about a block happens in
// Kernel.runProc, the event loop's side of the same switch: it stamps
// blockedSince when a suspension leaves the reason set, clears the
// reason when it resumes a blocked process, and fires the
// ProcBlock/ProcUnblock probe hooks. Nothing runs between a process's
// suspension and the loop, or between the loop's switch and the
// process continuing, so the kernel observes the identical
// transitions in the identical order.
func (p *Proc) Block(reason string) {
	p.blocked = reason
	p.yield()
}

// BlockWith is Block with the reason in two parts, joined only if a
// deadlock report asks for it: blocking is the innermost step of every
// communication call, and a string concatenation there allocates at
// the deepest point of the stack, growing it on every fresh coroutine.
func (p *Proc) BlockWith(prefix, detail string) {
	p.blocked, p.blockedDetail = prefix, detail
	p.yield()
}

// Blocked reports whether the process is currently suspended in Block
// or BlockWith (as opposed to running, sleeping on a timed resume, or
// finished). Only a blocked process may safely be woken by a third
// party: waking a sleeping process would race its already-scheduled
// timed resume. The fault-recovery layer uses this to decide whether a
// dead rank can be unwound immediately or must unwind at its next
// scheduling point.
func (p *Proc) Blocked() bool { return !p.done && p.blocked != "" }

// Wake schedules the blocked process p to resume at the current
// virtual time. It must be called for a process that is blocked (or
// about to block: a wake scheduled in the same timestamp before the
// block takes effect is delivered after the block, because events are
// FIFO within a timestamp and the blocking process holds control until
// it yields).
func (p *Proc) Wake() {
	p.k.atResume(p.k.now, p)
}

// WakeAt schedules the blocked process p to resume at time t.
func (p *Proc) WakeAt(t Time) {
	p.k.atResume(t, p)
}

func (p *Proc) blockedInfo() BlockedProc {
	r := p.blocked + p.blockedDetail
	if r == "" {
		r = "runnable?"
	}
	return BlockedProc{Name: p.Name(), Reason: r, Since: p.blockedSince}
}
