package mpi

import (
	"fmt"

	"bgpsim/internal/sim"
)

// Running is a program in stepwise execution: started with
// World.Begin, advanced to chosen points in virtual time with StepTo,
// and completed with Finish. The event order — and therefore every
// result byte — is identical to World.Run's: StepTo only chooses where
// the event loop pauses, never what it fires. That equivalence
// (run-to-T-then-finish ≡ straight run) is what makes Running the
// snapshot/restore substrate of the bgpsimd server: a long run can be
// parked at time T, inspected, and resumed without changing anything
// it would have computed.
//
// Stepwise execution always uses the serial kernel: the conservative
// sharded coordinator owns its shards' windows and cannot pause at an
// arbitrary outside time. Configs requesting shards run serial here
// (Result.Shards reports 1) — output bytes are identical either way by
// the sharded-kernel determinism contract.
type Running struct {
	w    *World
	done bool
	res  *Result
	err  error
}

// Begin spawns the program's ranks and returns a Running handle
// without firing any event. The world is consumed: it cannot be run
// again.
func (w *World) Begin(program func(*Rank)) (*Running, error) {
	if w.ran {
		return nil, fmt.Errorf("mpi: world already ran")
	}
	w.ran = true
	if w.cfg.Faults != nil {
		w.scheduleNodeFaults(w.cfg.Faults)
		if w.probe != nil {
			reportLinkFaults(w.probe, w.cfg.Faults)
		}
	}
	w.spawnRanks(program)
	return &Running{w: w}, nil
}

// Begin builds a world from cfg and starts program on it stepwise.
func Begin(cfg Config, program func(*Rank)) (*Running, error) {
	w, err := NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	return w.Begin(program)
}

// StepTo fires every pending event with a timestamp strictly below t,
// then pauses with all rank processes suspended. A run that ends inside
// the window (normally or by error) is finalized exactly as Finish
// would; further StepTo calls are then no-ops and Finish returns the
// stored outcome. Rewinding is impossible: a t at or before Now fires
// nothing.
func (r *Running) StepTo(t sim.Time) error {
	if r.done {
		return r.err
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

// Now returns the paused run's current virtual time.
func (r *Running) Now() sim.Time { return r.w.kernel.Now() }

// Events returns the number of simulation events fired so far.
func (r *Running) Events() uint64 { return r.w.kernel.Events() }

// Done reports whether the run has completed (successfully or not).
func (r *Running) Done() bool { return r.done }

// Finish runs the remaining events to completion and returns the
// result — byte-for-byte the result World.Run would have returned,
// however many StepTo pauses preceded it.
func (r *Running) Finish() (*Result, error) {
	if !r.done {
		r.finalize()
	}
	return r.res, r.err
}

// finalize runs the kernel to completion (a single Run call — the
// kernel refuses a second; when StepTo already drained the queue, Run
// just performs the live-process deadlock check and marks the kernel
// stopped, exactly as the straight path does) and builds the result
// with the serial Run path's bookkeeping: stats, events, shard count.
func (r *Running) finalize() error {
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
