package mpi

import (
	"fmt"
	"math"

	"bgpsim/internal/fault"
	"bgpsim/internal/obs"
	"bgpsim/internal/sim"
)

// Running is a program in stepwise execution: started with
// World.Begin, advanced to chosen points in virtual time with StepTo,
// and completed with Finish. It is the only way a world runs —
// World.Run is Begin followed by Finish — on the serial kernel and on
// the sharded coordinator alike. StepTo only chooses where the event
// loop pauses, never what it fires, so run-to-T-then-finish produces
// byte-for-byte the result of a straight run. That equivalence is what
// makes Running the snapshot/restore substrate of the bgpsimd server:
// a long run can be parked at time T, inspected, and resumed without
// changing anything it would have computed.
type Running struct {
	w *World

	// Sharded runs only: the node faults the coordinator has still to
	// process, in firing order, and the run's rank-event consumer that
	// the shard logs merge into when the run ends.
	pend []fault.NodeFault
	dst  obs.Probe

	done bool
	res  *Result
	err  error
}

// forever is the pause time of Finish: no event or fault lies beyond
// it.
const forever = sim.Time(math.MaxInt64)

// Begin sets the run up on the serial kernel or, when the config
// shards, on the shard kernels, spawns the program's ranks and returns
// a Running handle without firing any event. The world is consumed:
// it cannot be run again.
func (w *World) Begin(program func(*Rank)) (*Running, error) {
	if w.ran {
		return nil, fmt.Errorf("mpi: world already ran")
	}
	w.ran = true
	r := &Running{w: w}
	if s := w.effectiveShards(); s >= 1 {
		r.dst, r.pend = w.beginSharded(s)
	} else if w.cfg.Faults != nil {
		w.scheduleNodeFaults(w.cfg.Faults)
		if w.probe != nil {
			reportLinkFaults(w.probe, w.cfg.Faults)
		}
	}
	w.spawnRanks(program)
	return r, nil
}

// Begin builds a world from cfg and starts program on it stepwise.
func Begin(cfg Config, program func(*Rank)) (*Running, error) {
	w, err := NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	return w.Begin(program)
}

// StepTo fires every pending event, and processes every node fault,
// with a timestamp strictly below t, then pauses with all rank
// processes suspended. A run that ends inside the window (normally or
// by error) is finalized exactly as Finish would; further StepTo calls
// are then no-ops and Finish returns the stored outcome. Rewinding is
// impossible: a t at or before Now fires nothing.
func (r *Running) StepTo(t sim.Time) error {
	if r.done {
		return r.err
	}
	if r.w.sharded {
		if drained, err := r.coordinate(t); err != nil || drained {
			return r.finishSharded(err)
		}
		return nil
	}
	if err := r.w.kernel.RunWindow(t); err != nil {
		r.w.kernel.Release()
		r.seal(nil, r.w.annotateDeadlock(err))
		return r.err
	}
	if r.w.kernel.Drained() {
		// The program finished (or deadlocked) before t: finalize now
		// so the caller's Finish sees the same outcome a straight Run
		// would have produced.
		return r.finalize()
	}
	return nil
}

// Now returns the paused run's current virtual time: the time of the
// latest fired event or, on the sharded coordinator, processed node
// fault.
func (r *Running) Now() sim.Time {
	w := r.w
	if !w.sharded {
		return w.kernel.Now()
	}
	now := w.vnow
	for _, sh := range w.shards {
		now = max(now, sh.k.Now())
	}
	return now
}

// Events returns the number of simulation events fired so far, counted
// as Result.Events counts them.
func (r *Running) Events() uint64 {
	if !r.w.sharded {
		return r.w.kernel.Events()
	}
	return r.w.shardedEvents()
}

// Done reports whether the run has completed (successfully or not).
func (r *Running) Done() bool { return r.done }

// Finish runs the remaining events to completion and returns the
// result — byte-for-byte the result of a straight run, however many
// StepTo pauses preceded it.
func (r *Running) Finish() (*Result, error) {
	if !r.done {
		r.finalize()
	}
	return r.res, r.err
}

// finalize runs the run to completion and builds its result. On the
// serial kernel that is a single Run call (the kernel refuses a
// second; when StepTo already drained the queue, Run just performs the
// live-process deadlock check and marks the kernel stopped).
func (r *Running) finalize() error {
	if r.w.sharded {
		_, err := r.coordinate(forever)
		return r.finishSharded(err)
	}
	if err := r.w.kernel.Run(); err != nil {
		r.seal(nil, r.w.annotateDeadlock(err))
		return r.err
	}
	res := r.w.buildResult()
	res.Net = r.w.net.Stats()
	res.Events = r.w.kernel.Events()
	res.Shards = 1
	r.seal(res, nil)
	return nil
}

// seal records the run's final outcome.
func (r *Running) seal(res *Result, err error) {
	r.done = true
	r.res = res
	r.err = err
}
