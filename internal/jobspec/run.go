package jobspec

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"

	"bgpsim/internal/calib"
	"bgpsim/internal/facility"
	"bgpsim/internal/fault"
	"bgpsim/internal/halo"
	"bgpsim/internal/hpcc"
	"bgpsim/internal/machine"
	"bgpsim/internal/mpi"
	"bgpsim/internal/obs"
	"bgpsim/internal/runner"
	"bgpsim/internal/sim"
	"bgpsim/internal/topology"
	"bgpsim/internal/trace"
)

// Artifact is one named byte blob a job produced beyond its stdout:
// a Chrome trace timeline, a per-link CSV heatmap. Artifacts are
// rendered straight into memory through the obs layer's io.Writer
// exporters — no temp files — and their bytes are deterministic, so
// they participate in the result cache's byte-identical contract.
type Artifact struct {
	Name string
	Data []byte
}

// Standard artifact names.
const (
	ArtifactTrace = "trace.json"
	ArtifactLinks = "links.csv"
)

// RunResult is what a job run produced besides its stdout/stderr
// streams: the canonical spec that ran, its content hash, and the
// artifacts. A RunResult may accompany an error — an aborted run
// (fault injection killing a rank) still delivers the artifacts
// recorded up to the abort, truncated but loadable.
type RunResult struct {
	Spec      Spec
	Hash      string
	Artifacts []Artifact
}

// Artifact returns the named artifact's bytes, nil if absent.
func (r *RunResult) Artifact(name string) []byte {
	for _, a := range r.Artifacts {
		if a.Name == name {
			return a.Data
		}
	}
	return nil
}

// Run executes one job: the single execution path behind all four
// CLIs and the bgpsimd server. The human-readable report goes to
// stdout and diagnostics (blast domains, dropped-trace warnings,
// serial-fallback notes) to stderr, byte-identical to what the owning
// CLI has always printed; artifacts are collected in memory.
//
// On error the returned RunResult is nil only when the spec is
// invalid. When an injected node kill aborts a single simulation
// (*mpi.RankFailure), it carries the artifacts recorded up to the
// abort, truncated but loadable (the truncated-trace contract).
func Run(spec Spec, stdout, stderr io.Writer) (*RunResult, error) {
	c := spec.Canonical()
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if CanSession(c) {
		// A single-simulation job runs as a session finished without a
		// pause: the one path that snapshots resume on too.
		sess := &Session{spec: c}
		if err := sess.start(); err != nil {
			stderr.Write(sess.blasts.Bytes())
			return &RunResult{Spec: c, Hash: c.Hash()}, err
		}
		return sess.Finish(stdout, stderr)
	}
	rr := &RunResult{Spec: c, Hash: c.Hash()}
	var err error
	switch c.Kind {
	case KindHalo:
		err = runHalo(c, stdout, stderr)
	case KindHPCC:
		err = runHPCC(c, rr, stdout, stderr)
	case KindFacility:
		err = runFacility(c, rr, stdout)
	case KindCalib:
		err = runCalib(c, stdout)
	default:
		return nil, fmt.Errorf("jobspec: unknown kind %q", c.Kind)
	}
	return rr, err
}

// collect renders the recorder's streaming exporters into the result's
// artifact list, sorted by name (trace and links, as the spec
// requested). Every kind delivers its artifacts through here.
func collect(c Spec, rr *RunResult, rec *obs.Recorder) error {
	if rec == nil {
		return nil
	}
	defer func() {
		sort.Slice(rr.Artifacts, func(i, j int) bool { return rr.Artifacts[i].Name < rr.Artifacts[j].Name })
	}()
	if c.Trace {
		var b bytes.Buffer
		if err := rec.WriteChromeTrace(&b); err != nil {
			return err
		}
		rr.Artifacts = append(rr.Artifacts, Artifact{Name: ArtifactTrace, Data: b.Bytes()})
	}
	if c.Links {
		var b bytes.Buffer
		if err := rec.WriteLinkCSV(&b, obs.TorusLinkName); err != nil {
			return err
		}
		rr.Artifacts = append(rr.Artifacts, Artifact{Name: ArtifactLinks, Data: b.Bytes()})
	}
	return nil
}

// writeProfile prints the recorder-derived per-rank decomposition and
// critical path (the CLIs' -profile output).
func writeProfile(res *mpi.Result, stdout io.Writer) error {
	if err := res.Profile().WriteTable(stdout); err != nil {
		return err
	}
	return res.CriticalPath().WriteSummary(stdout)
}

// renderBench prints the bench report exactly as cmd/bgpsim always
// has.
func renderBench(c Spec, cfg mpi.Config, res *mpi.Result, tb *trace.Buffer, stdout, stderr io.Writer) error {
	if c.Shards > 1 && res.Shards < c.Shards {
		// The fallback is silent on stdout but worth a note: the user
		// asked for parallelism the configuration cannot provide.
		fmt.Fprintf(stderr, "%s: note: ran on the serial kernel (-shards %d needs -fidelity analytic and no link faults)\n", progname(c.Kind), c.Shards)
	}
	mode, _ := parseMode(c.Mode)
	bytes := 8
	if c.Bytes != nil {
		bytes = *c.Bytes
	}
	fmt.Fprintf(stdout, "%s %s %d ranks (%d nodes), %s, %d bytes\n",
		c.Machine, mode, cfg.Ranks, cfg.Nodes, c.Bench, bytes)
	fmt.Fprintf(stdout, "  time:       %v\n", res.Elapsed)
	if c.Bench == "pingpong" {
		half := res.Elapsed / 2
		fmt.Fprintf(stdout, "  one-way:    %v\n", half)
		if bytes > 0 {
			fmt.Fprintf(stdout, "  bandwidth:  %.3f GB/s\n", float64(bytes)/half.Seconds()/1e9)
		}
	}
	fmt.Fprintf(stdout, "  messages:   %d (%d on shared memory)\n", res.Net.Messages, res.Net.ShmMsgs)
	fmt.Fprintf(stdout, "  tree ops:   %d, barrier-net ops: %d\n", res.Net.TreeOps, res.Net.BarrierOps)
	// Gated on the fault spec, not the plan: a variability-only plan
	// (Spec.Var) has no fault machinery to report, and the block's
	// absence keeps var-free output identical to the historical bytes.
	if c.Faults != "" {
		fmt.Fprintf(stdout, "  lost ranks: %v\n", res.Lost)
		fmt.Fprintf(stdout, "  recoveries: %d (tree rebuilds %d, HW fallbacks %d, %v charged)\n",
			res.Net.Recoveries, res.Net.TreeRebuilds, res.Net.HWFallbacks, res.Net.RecoveryTime)
		if cfg.Faults.LogSender() {
			fmt.Fprintf(stdout, "  peer-lost:  %d rank(s) had waits cancelled on a dead peer\n", len(res.PeerLost))
			fmt.Fprintf(stdout, "  msg log:    %d orphans cancelled, %d restarts (%d msgs / %d bytes replayed, %v replay, %v restart charged)\n",
				res.Net.Orphans, res.Net.Restarts, res.Net.Replays, res.Net.ReplayBytes,
				res.Net.ReplayTime, res.Net.RestartTime)
		}
	}
	fmt.Fprintf(stdout, "  sim events: %d\n", res.Events)
	if n := res.DroppedEvents(); n > 0 {
		fmt.Fprintf(stderr, "%s: warning: %d trace events dropped (raise -events)\n", progname(c.Kind), n)
	}
	if tb != nil {
		fmt.Fprintln(stdout, "trace:")
		if err := tb.Dump(stdout); err != nil {
			return err
		}
	}
	return nil
}

// runHPCC executes an hpcc-kind spec: the suite at each requested
// process count, concurrently on the runner pool, reported in list
// order.
func runHPCC(c Spec, rr *RunResult, stdout, stderr io.Writer) error {
	id := machine.ID(c.Machine)
	m, err := machine.Lookup(id)
	if err != nil {
		return err
	}
	coll, err := mpi.ParseCollSpec(collString(c.Coll))
	if err != nil {
		return err
	}
	var rec *obs.Recorder
	if c.Trace || c.Profile {
		rec = obs.NewRecorder()
	}

	// Per-job diagnostics (blast domains, dropped trace events, shard
	// fallbacks) are collected here and flushed in job order after the
	// sweep — including before an error exit, so an aborted run still
	// reports which nodes its blast took out. Printing from the worker
	// goroutines would interleave lines nondeterministically under -j.
	var notes runner.Notes
	reports, err := runner.Map(len(c.RankList), func(job int) (string, error) {
		ranks := c.RankList[job]
		// The micro-benchmarks see the variability model (per-node
		// bandwidth draws move the ping-pong numbers) but not the fault
		// plan — faults target the collective phase, as they always
		// have. A fresh plan per call keeps concurrent jobs unshared.
		epPlan, err := applyVar(c.Var, nil)
		if err != nil {
			return "", err
		}
		ep, err := hpcc.SingleAndEPFaultySharded(id, ranks, epPlan, c.Shards)
		if err != nil {
			return "", err
		}
		// The fault plan is built per rank count (blast domains and
		// range checks depend on the partition) and per job, so
		// concurrent simulations share nothing.
		var plan *fault.Plan
		if c.Faults != "" {
			nodes := nodesFor(id, machine.VN, ranks)
			var blasts []fault.BlastResult
			plan, blasts, err = fault.BuildForPartition(c.Faults, id, nodes)
			if err != nil {
				return "", err
			}
			for _, bl := range blasts {
				notes.Add(job, "hpcc: %d processes: blast from node %d: %s domain [%d, %d], %d nodes killed",
					ranks, bl.Origin, bl.Level, bl.First, bl.Last, len(bl.Dead))
			}
		}
		if plan, err = applyVar(c.Var, plan); err != nil {
			return "", err
		}
		// rec is only non-nil with a single rank count, so at most one
		// simulation ever drives it.
		cb, cres, err := hpcc.CollBenchFaultySharded(id, ranks, coll, plan, probeOrNil(rec), c.Shards)
		if cres != nil {
			if n := cres.DroppedEvents(); n > 0 {
				notes.Add(job, "hpcc: warning: %d processes: %d trace events dropped (buffer full)", ranks, n)
			}
			if c.Shards > 1 && cres.Shards < c.Shards {
				notes.Add(job, "hpcc: note: %d processes ran on the serial kernel (-shards %d needs the analytic fidelity and no link faults)",
					ranks, c.Shards)
			}
		}
		if err != nil {
			return "", err
		}
		n := hpcc.ProblemSizeN(m, machine.VN, ranks, 0.8)
		nb := hpcc.BlockingNB(id)
		hpl := hpcc.HPLAnalytic(id, machine.VN, ranks, n, nb)

		var b strings.Builder
		fmt.Fprintf(&b, "HPCC on %s, %d processes (VN mode), N=%d, NB=%d\n\n", m.Name, ranks, n, nb)
		fmt.Fprintf(&b, "Single-process / embarrassingly-parallel tests:\n")
		fmt.Fprintf(&b, "  DGEMM:             %8.2f GFlop/s per process\n", ep.DGEMMGF)
		fmt.Fprintf(&b, "  STREAM triad SP:   %8.2f GB/s\n", ep.StreamSPGB)
		fmt.Fprintf(&b, "  STREAM triad EP:   %8.2f GB/s per process\n", ep.StreamEPGB)
		fmt.Fprintf(&b, "  FFT EP:            %8.2f GFlop/s per process\n", ep.FFTEPGF)
		fmt.Fprintf(&b, "Communication tests:\n")
		fmt.Fprintf(&b, "  Ping-pong latency: %8.2f us\n", ep.PingPongLatUS)
		fmt.Fprintf(&b, "  Ping-pong BW:      %8.2f GB/s\n", ep.PingPongBWGBs)
		fmt.Fprintf(&b, "  Random ring lat:   %8.2f us\n", ep.RandRingLatUS)
		fmt.Fprintf(&b, "  Random ring BW:    %8.2f GB/s per process\n", ep.RandRingBWGBs)
		fmt.Fprintf(&b, "Collective tests (%d bytes):\n", hpcc.CollBytes)
		fmt.Fprintf(&b, "  Barrier:           %8.2f us  [%s]\n", cb.BarrierUS, cb.BarrierAlgo)
		fmt.Fprintf(&b, "  Bcast:             %8.2f us  [%s]\n", cb.BcastUS, cb.BcastAlgo)
		fmt.Fprintf(&b, "  Allreduce:         %8.2f us  [%s]\n", cb.AllreduceUS, cb.AllreduceAlgo)
		if c.Faults != "" {
			fmt.Fprintf(&b, "Injected faults (%s):\n", c.Faults)
			fmt.Fprintf(&b, "  lost ranks: %v\n", cres.Lost)
			fmt.Fprintf(&b, "  recoveries: %d (tree rebuilds %d, HW fallbacks %d, %v charged)\n",
				cres.Net.Recoveries, cres.Net.TreeRebuilds, cres.Net.HWFallbacks, cres.Net.RecoveryTime)
			if plan.LogSender() {
				fmt.Fprintf(&b, "  message log: %d orphans cancelled, %d restarts (%d msgs / %d bytes replayed, %v replay, %v restart charged)\n",
					cres.Net.Orphans, cres.Net.Restarts, cres.Net.Replays, cres.Net.ReplayBytes,
					cres.Net.ReplayTime, cres.Net.RestartTime)
			}
		}
		fmt.Fprintf(&b, "Parallel tests:\n")
		fmt.Fprintf(&b, "  HPL:               %8.1f GFlop/s (%.1f%% of peak)\n",
			hpl, hpl*1e9/(m.PeakFlopsCore()*float64(ranks))*100)
		fmt.Fprintf(&b, "  FFT:               %8.1f GFlop/s\n", hpcc.FFTAnalytic(id, machine.VN, ranks))
		fmt.Fprintf(&b, "  PTRANS:            %8.1f GB/s\n", hpcc.PTRANSAnalytic(id, machine.VN, ranks))
		fmt.Fprintf(&b, "  RandomAccess:      %8.3f GUPS\n", hpcc.RandomAccessGUPS(id, machine.VN, ranks))
		return b.String(), nil
	})
	notes.Flush(stderr)
	if err != nil {
		return err
	}
	for i, r := range reports {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		io.WriteString(stdout, r)
	}
	if rec != nil {
		if c.Profile {
			fmt.Fprintln(stdout)
			if err := rec.Profile().WriteTable(stdout); err != nil {
				return err
			}
			if err := rec.CriticalPath().WriteSummary(stdout); err != nil {
				return err
			}
		}
		if err := collect(c, rr, rec); err != nil {
			return err
		}
	}
	return nil
}

// probeOrNil converts a possibly-nil *obs.Recorder to an obs.Probe
// without producing a non-nil interface around a nil pointer.
func probeOrNil(rec *obs.Recorder) obs.Probe {
	if rec == nil {
		return nil
	}
	return rec
}

// runCalib executes a calib-kind spec: the standard perturb-and-
// recover calibration fit of one machine model, reported as the
// parameter-trajectory and residual tables. The fit is deterministic
// at any worker count, so calib jobs cache like every other kind.
func runCalib(c Spec, stdout io.Writer) error {
	res, err := calib.Fit(machine.ID(c.Machine), calib.DefaultFitOptions())
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, res.ParamTable().String())
	fmt.Fprintln(stdout, res.ResidualTable().String())
	return nil
}

// runFacility executes a facility-kind spec: the workload report plus
// the per-blast notes, all on stdout (the facility CLI's layout).
func runFacility(c Spec, rr *RunResult, stdout io.Writer) error {
	wl, err := facility.Parse(c.Workload)
	if err != nil {
		return err
	}
	res, err := facility.Run(facility.Params{Workload: wl, Shards: c.Shards})
	if err != nil {
		return err
	}
	res.Report(stdout)
	if len(res.Blasts) > 0 {
		io.WriteString(stdout, "\n")
		var notes runner.Notes
		res.BlastNotes(&notes)
		notes.Flush(stdout)
	}
	return nil
}

// haloSweepSizes is the halo size sweep (cmd/halo -sweep).
var haloSweepSizes = []int{2, 8, 32, 128, 512, 2048, 8192, 32768, 131072}

// runHalo executes a halo-kind spec in its sweep or mapping-comparison
// mode: independent runs on the runner pool, reported in list order.
// The single-exchange mode runs as a session (Run).
func runHalo(c Spec, stdout, stderr io.Writer) error {
	base, blasts, err := c.HaloOptions()
	if err != nil {
		return err
	}
	for _, b := range blasts {
		fmt.Fprintf(stderr, "halo: blast from node %d: %s domain [%d, %d], %d nodes killed\n",
			b.Origin, b.Level, b.First, b.Last, len(b.Dead))
	}
	// Each sweep job gets its own freshly built plan, so nothing is
	// shared between concurrent simulations; Build is deterministic,
	// so every rebuild schedules identical faults.
	refresh := func(o *halo.Options) {
		if c.Faults == "" {
			return
		}
		fresh, _, err := c.HaloOptions()
		if err != nil {
			panic(err) // unreachable: the spec validated above
		}
		o.Faults = fresh.Faults
	}
	warn := func(notes *runner.Notes, i int, res *mpi.Result) {
		if res == nil {
			return
		}
		if n := res.DroppedEvents(); n > 0 {
			notes.Add(i, "halo: warning: job %d: %d trace events dropped (buffer full)", i, n)
		}
		if c.Shards > 1 && res.Shards < c.Shards {
			notes.Add(i, "halo: note: job %d ran on the serial kernel (-shards %d needs -analytic and no link faults)", i, c.Shards)
		}
	}

	mode, _ := parseMode(c.Mode)
	switch {
	case c.Mappings:
		fmt.Fprintf(stdout, "HALO mapping comparison: %s %s %dx%d grid, %d words\n",
			c.Machine, mode, c.GridX, c.GridY, c.Words)
		var notes runner.Notes
		ds, err := runner.Map(len(topology.PaperHALOMappings), func(i int) (sim.Duration, error) {
			o := base
			o.Mapping = topology.PaperHALOMappings[i]
			refresh(&o)
			d, res, err := halo.RunResult(o)
			warn(&notes, i, res)
			return d, err
		})
		notes.Flush(stderr)
		if err != nil {
			return err
		}
		for i, m := range topology.PaperHALOMappings {
			fmt.Fprintf(stdout, "  %-5s %10.2f us\n", m, ds[i].Microseconds())
		}
	case c.Sweep:
		fmt.Fprintf(stdout, "HALO size sweep: %s %s %dx%d grid, %s, mapping %s\n",
			c.Machine, mode, c.GridX, c.GridY, base.Protocol, base.Mapping)
		var notes runner.Notes
		ds, err := runner.Map(len(haloSweepSizes), func(i int) (sim.Duration, error) {
			o := base
			o.Words = haloSweepSizes[i]
			refresh(&o)
			d, res, err := halo.RunResult(o)
			warn(&notes, i, res)
			return d, err
		})
		notes.Flush(stderr)
		if err != nil {
			return err
		}
		for i, w := range haloSweepSizes {
			fmt.Fprintf(stdout, "  %8d words %12.2f us\n", w, ds[i].Microseconds())
		}
	}
	return nil
}

// renderHaloSingle prints the single-exchange report exactly as
// cmd/halo always has.
func renderHaloSingle(c Spec, o halo.Options, d sim.Duration, res *mpi.Result, stdout, stderr io.Writer) error {
	mode, _ := parseMode(c.Mode)
	fmt.Fprintf(stdout, "HALO %s %s %dx%d grid, %d words, %s, mapping %s: %v per exchange\n",
		c.Machine, mode, c.GridX, c.GridY, c.Words, o.Protocol, o.Mapping, d)
	if c.Faults != "" && res != nil {
		fmt.Fprintf(stdout, "  faults: lost ranks %v, recoveries %d (%v charged)\n",
			res.Lost, res.Net.Recoveries, res.Net.RecoveryTime)
		if o.Faults.LogSender() {
			fmt.Fprintf(stdout, "  msg log: %d orphans cancelled (%d peer-lost waits), %d restarts (%d msgs / %d bytes replayed, %v replay, %v restart charged)\n",
				res.Net.Orphans, len(res.PeerLost), res.Net.Restarts, res.Net.Replays,
				res.Net.ReplayBytes, res.Net.ReplayTime, res.Net.RestartTime)
		}
	}
	if n := res.DroppedEvents(); n > 0 {
		fmt.Fprintf(stderr, "halo: warning: %d trace events dropped (buffer full)\n", n)
	}
	if c.Shards > 1 && res.Shards < c.Shards {
		fmt.Fprintf(stderr, "halo: note: ran on the serial kernel (-shards %d needs -analytic and no link faults)\n", c.Shards)
	}
	return nil
}
