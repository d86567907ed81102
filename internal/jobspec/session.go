package jobspec

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"bgpsim/internal/fault"
	"bgpsim/internal/halo"
	"bgpsim/internal/mpi"
	"bgpsim/internal/obs"
	"bgpsim/internal/sim"
	"bgpsim/internal/trace"
)

// Session is one job in stepwise execution: started without firing any
// event, advanced to chosen points in virtual time, and finished into
// exactly the output a straight Run of the same spec produces — stdout
// bytes, stderr bytes, and artifacts all byte-identical. That
// equivalence holds by construction: Run executes these kinds as a
// session finished without a pause, and StepTo only chooses where the
// event loop pauses, never what it fires. Sessions are the bgpsimd
// server's snapshot substrate (park a long run at virtual time T,
// inspect it, resume it, or fork a variant by deterministic replay).
//
// Only the kinds whose run is a single simulation support sessions:
// bench, and halo in single-exchange mode. Sweeps and multi-job
// workloads are collections of independent runs; snapshot those by
// snapshotting their parts.
//
// A Session is not safe for concurrent use; callers serialize StepTo
// and Finish (the server holds one lock per snapshot).
type Session struct {
	spec Spec // canonical

	run *mpi.Running

	// bench state
	benchCfg mpi.Config
	tb       *trace.Buffer

	// halo state
	halo     *halo.Session
	haloOpts halo.Options

	rec *obs.Recorder
	// blasts holds the stderr blast-domain lines printed before the
	// simulation's report; Finish writes them first.
	blasts bytes.Buffer

	finished bool
	result   *RunResult
	err      error
}

// CanSession reports whether a spec's kind and mode support stepwise
// execution (see Session).
func CanSession(s Spec) bool {
	c := s.Canonical()
	switch c.Kind {
	case KindBench:
		return true
	case KindHalo:
		return !c.Sweep && !c.Mappings
	}
	return false
}

// StartSession validates the spec and begins its simulation without
// firing any event.
func StartSession(spec Spec) (*Session, error) {
	c := spec.Canonical()
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if !CanSession(c) {
		return nil, fmt.Errorf("jobspec: kind %q does not support stepwise sessions (single-simulation jobs only)", c.Kind)
	}
	sess := &Session{spec: c}
	if err := sess.start(); err != nil {
		return nil, err
	}
	return sess, nil
}

// start builds the canonical spec's simulation and begins it. On error
// the blast lines recorded so far stay in s.blasts.
func (s *Session) start() error {
	c := s.spec
	if c.Trace || c.Profile || c.Links {
		s.rec = obs.NewRecorder()
	}
	var blasts []fault.BlastResult
	var err error
	switch c.Kind {
	case KindBench:
		var cfg mpi.Config
		if cfg, blasts, err = c.BenchConfig(); err != nil {
			return err
		}
		if c.Events > 0 {
			s.tb = trace.NewBuffer(c.Events)
			cfg.Trace = s.tb
		}
		cfg.Probe = probeOrNil(s.rec)
		s.benchCfg = cfg
		s.writeBlasts(blasts)
		s.run, err = mpi.Begin(cfg, benchProgram(c, cfg))
	case KindHalo:
		var o halo.Options
		if o, blasts, err = c.HaloOptions(); err != nil {
			return err
		}
		o.Probe = probeOrNil(s.rec)
		s.haloOpts = o
		s.writeBlasts(blasts)
		if s.halo, err = halo.Start(o); err == nil {
			s.run = s.halo.Running
		}
	}
	return err
}

// writeBlasts records the stderr lines reporting the fault plan's
// blast domains.
func (s *Session) writeBlasts(blasts []fault.BlastResult) {
	for _, b := range blasts {
		fmt.Fprintf(&s.blasts, "%s: blast from node %d: %s domain [%d, %d], %d nodes killed\n",
			progname(s.spec.Kind), b.Origin, b.Level, b.First, b.Last, len(b.Dead))
	}
}

// Spec returns the session's canonical spec.
func (s *Session) Spec() Spec { return s.spec }

// Hash returns the session's job hash (the result-cache identity).
func (s *Session) Hash() string { return s.spec.Hash() }

// StepTo fires every pending event with a timestamp strictly below t,
// then pauses. A run that ends inside the window stays parked until
// Finish; further steps are no-ops.
func (s *Session) StepTo(t sim.Time) error {
	if s.finished {
		return s.err
	}
	return s.run.StepTo(t)
}

// Now returns the paused run's current virtual time.
func (s *Session) Now() sim.Time { return s.run.Now() }

// Events returns the number of simulation events fired so far.
func (s *Session) Events() uint64 { return s.run.Events() }

// Done reports whether the underlying simulation has completed (the
// session may still await Finish for rendering).
func (s *Session) Done() bool { return s.finished || s.run.Done() }

// Finish runs the simulation to completion and renders the job's
// report and artifacts — stdout, stderr, and artifact bytes all
// identical to Run(spec) however many StepTo pauses preceded it.
// Finish is idempotent; repeated calls replay the stored outcome
// without re-rendering to the writers. On error the result still
// carries the artifacts recorded up to an injected kill's abort (see
// Run).
func (s *Session) Finish(stdout, stderr io.Writer) (*RunResult, error) {
	if s.finished {
		return s.result, s.err
	}
	s.finished = true
	stderr.Write(s.blasts.Bytes())
	s.result = &RunResult{Spec: s.spec, Hash: s.spec.Hash()}
	s.err = s.finish(stdout, stderr)
	return s.result, s.err
}

// finish completes the simulation and renders its report, profile and
// artifacts.
func (s *Session) finish(stdout, stderr io.Writer) error {
	c := s.spec
	var d sim.Duration
	var res *mpi.Result
	var err error
	if s.halo != nil {
		d, res, err = s.halo.Finish()
	} else {
		res, err = s.run.Finish()
	}
	if err != nil {
		var rf *mpi.RankFailure
		if errors.As(err, &rf) {
			// An injected kill aborts the run, but the recorder keeps
			// everything observed up to the abort: deliver the
			// truncated artifacts alongside the error.
			if cerr := collect(c, s.result, s.rec); cerr != nil {
				return cerr
			}
		}
		return err
	}
	if s.halo != nil {
		err = renderHaloSingle(c, s.haloOpts, d, res, stdout, stderr)
	} else {
		err = renderBench(c, s.benchCfg, res, s.tb, stdout, stderr)
	}
	if err != nil {
		return err
	}
	if c.Profile {
		if err := writeProfile(res, stdout); err != nil {
			return err
		}
	}
	return collect(c, s.result, s.rec)
}
