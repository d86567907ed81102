package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"bgpsim/internal/core"
	"bgpsim/internal/halo"
	"bgpsim/internal/jobspec"
	"bgpsim/internal/mpi"
	"bgpsim/internal/network"
	"bgpsim/internal/obs"
	"bgpsim/internal/runner"
)

// output is what one jobspec.Run call produced.
type output struct {
	stdout, stderr []byte
	rr             *jobspec.RunResult
	took           time.Duration
}

// firstWrite remembers when the first byte reached it: jobspec.Run
// prints nothing to stdout before the simulation has finished, so the
// interval from the first write to Run's return is the render phase.
type firstWrite struct {
	bytes.Buffer
	at time.Time
}

func (w *firstWrite) Write(p []byte) (int, error) {
	if w.at.IsZero() {
		w.at = time.Now()
	}
	return w.Buffer.Write(p)
}

// runSpec runs one job through jobspec.Run, the path every CLI and the
// server take, with a jobspec.run span and a jobspec.render child span.
func runSpec(tr *tracer, parent, job int, spec jobspec.Spec) (output, error) {
	var stdout firstWrite
	var stderr bytes.Buffer
	sp := tr.open("jobspec.run", parent, job)
	start := time.Now()
	rr, err := jobspec.Run(spec, &stdout, &stderr)
	end := time.Now()
	tr.close(sp)
	if tr != nil && !stdout.at.IsZero() {
		tr.add("jobspec.render", sp, job, stdout.at, end)
	}
	return output{stdout: stdout.Bytes(), stderr: stderr.Bytes(), rr: rr, took: end.Sub(start)}, err
}

// layered is what runLayers measured for one spec.
type layered struct {
	res *mpi.Result
	// witness is a line jobspec.Run must print for the same spec, so
	// the layer-by-layer path is checked against the real one.
	witness string
	// trace is the Chrome trace export (nil when the spec has none).
	trace []byte
}

// runLayers runs one spec the way jobspec.Run does, one layer call at
// a time, with a span around each call: jobspec.prepare (Decode, Hash,
// BenchConfig or HaloOptions), mpi.world (NewWorld, bench jobs), mpi.run
// (World.Run or halo.RunResult) and obs.export (Profile, CriticalPath,
// WriteChromeTrace).
func runLayers(tr *tracer, job int, spec jobspec.Spec) (*layered, error) {
	root := tr.open("job", -1, job)
	defer tr.close(root)
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	sp := tr.open("jobspec.prepare", root, job)
	c, err := jobspec.Decode(raw)
	if err != nil {
		return nil, err
	}
	c.Hash()
	var rec *obs.Recorder
	if c.Trace || c.Profile {
		rec = obs.NewRecorder()
	}
	out := &layered{}
	switch c.Kind {
	case jobspec.KindBench:
		cfg, _, err := c.BenchConfig()
		tr.close(sp)
		if err != nil {
			return nil, err
		}
		program, err := benchProgram(c)
		if err != nil {
			return nil, err
		}
		if rec != nil {
			cfg.Probe = rec
		}
		ws := tr.open("mpi.world", root, job)
		w, err := mpi.NewWorld(cfg)
		tr.close(ws)
		if err != nil {
			return nil, err
		}
		rs := tr.open("mpi.run", root, job)
		out.res, err = w.Run(program)
		tr.close(rs)
		if err != nil {
			return nil, err
		}
		out.witness = fmt.Sprintf("  sim events: %d\n", out.res.Events)
	case jobspec.KindHalo:
		o, _, err := c.HaloOptions()
		tr.close(sp)
		if err != nil {
			return nil, err
		}
		if rec != nil {
			o.Probe = rec
		}
		rs := tr.open("mpi.run", root, job)
		d, res, err := halo.RunResult(o)
		tr.close(rs)
		if err != nil {
			return nil, err
		}
		out.res = res
		out.witness = fmt.Sprintf(": %v per exchange\n", d)
	default:
		return nil, fmt.Errorf("no layer path for kind %q", c.Kind)
	}
	if rec != nil {
		es := tr.open("obs.export", root, job)
		var b bytes.Buffer
		err := out.res.Profile().WriteTable(&b)
		if err == nil {
			err = out.res.CriticalPath().WriteSummary(&b)
		}
		if err == nil && c.Trace {
			b.Reset()
			err = rec.WriteChromeTrace(&b)
			out.trace = b.Bytes()
		}
		tr.close(es)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// benchProgram is the rank program of the bench kinds the workloads
// generate, as jobspec builds it.
func benchProgram(c jobspec.Spec) (func(*mpi.Rank), error) {
	bytes, double := *c.Bytes, *c.Double
	switch c.Bench {
	case "allreduce":
		return func(r *mpi.Rank) { r.World().Allreduce(r, bytes, double) }, nil
	case "bcast":
		return func(r *mpi.Rank) { r.World().Bcast(r, 0, bytes) }, nil
	case "barrier":
		return func(r *mpi.Rank) { r.World().Barrier(r) }, nil
	case "alltoall":
		return func(r *mpi.Rank) { r.World().Alltoall(r, bytes) }, nil
	}
	return nil, fmt.Errorf("no layer path for bench %q", c.Bench)
}

// haloWorld builds (and discards) the mpi.World a halo spec runs on,
// timing mpi.NewWorld for jobs whose world halo.RunResult builds
// internally.
func haloWorld(tr *tracer, job int, spec jobspec.Spec) error {
	o, _, err := spec.HaloOptions()
	if err != nil {
		return err
	}
	cfg := core.PartitionConfig(o.Machine, o.Mode, o.GridX*o.GridY)
	cfg.Mapping = o.Mapping
	cfg.Shards = o.Shards
	cfg.Fidelity = network.Contention
	if o.Analytic {
		cfg.Fidelity = network.Analytic
	}
	ws := tr.open("mpi.world", -1, job)
	_, err = mpi.NewWorld(cfg)
	tr.close(ws)
	return err
}

// layerTotals sums the exact simulation counters over a job set.
type layerTotals struct {
	jobs                   int
	events, msgs, bytes    int64
	shards, peakRankStateB int64
}

// decompose runs every spec both layer by layer and through
// jobspec.Run on runner.MapN, checks that the two agree, and returns
// the exact counters and each spec's jobspec.Run output.
func decompose(tr *tracer, rep *report, specs []jobspec.Spec, workers int) (layerTotals, []output) {
	var mu sync.Mutex
	var t layerTotals
	outs := make([]output, len(specs))
	runner.MapN(len(specs), workers, func(i int) (struct{}, error) {
		l, err := runLayers(tr, i, specs[i])
		var out output
		if err == nil {
			out, err = runSpec(tr, -1, i, specs[i])
		}
		mu.Lock()
		defer mu.Unlock()
		outs[i] = out
		switch {
		case err != nil:
			rep.job(fmt.Sprintf("layer job %d: %v", i, err))
		case !bytes.Contains(out.stdout, []byte(l.witness)):
			rep.job(fmt.Sprintf("layer job %d: jobspec.Run output lacks %q", i, l.witness))
		case l.trace != nil && !bytes.Equal(l.trace, out.rr.Artifact(jobspec.ArtifactTrace)):
			rep.job(fmt.Sprintf("layer job %d: trace export differs from jobspec.Run's", i))
		default:
			rep.job("")
			t.jobs++
			t.events += int64(l.res.Events)
			t.msgs += l.res.Net.Messages
			t.bytes += l.res.Net.Bytes
			t.shards = max(t.shards, int64(l.res.Shards))
			t.peakRankStateB = max(t.peakRankStateB, l.res.PeakRankState)
		}
		return struct{}{}, nil
	})
	return t, outs
}

// reportLayers reports the per-layer metrics every workload shares,
// from the spans and the exact counters of the decomposed job set.
func reportLayers(rep *report, tr *tracer, t layerTotals) map[string]layerStat {
	st := tr.selfTimes()
	run := st["mpi.run"]
	rep.layer("jobspec.prepare_ms", st["jobspec.prepare"].meanMS(), "ms",
		fmt.Sprintf("Decode+Canonical+Validate+Hash+config build, mean of %d jobs", st["jobspec.prepare"].n))
	rep.layer("jobspec.render_ms", st["jobspec.render"].meanMS(), "ms",
		fmt.Sprintf("first stdout byte to jobspec.Run return (report text and the obs exports it triggers), mean of %d runs", st["jobspec.render"].n))
	rep.layer("mpi.world_ms", st["mpi.world"].meanMS(), "ms", fmt.Sprintf("mpi.NewWorld, mean of %d worlds", st["mpi.world"].n))
	rep.layer("mpi.run_s", run.meanMS()/1e3, "s", fmt.Sprintf("World.Run / halo.RunResult, mean of %d jobs", run.n))
	rep.layer("sim.events", float64(t.events), "count", fmt.Sprintf("events fired by %d jobs (exact)", t.jobs))
	rep.layer("sim.ns_per_event", float64(run.self)/float64(max(t.events, 1)), "ns", "mpi.run self time per event fired")
	rep.layer("network.msgs", float64(t.msgs), "count", "Result.Net.Messages summed (exact)")
	rep.layer("network.bytes", float64(t.bytes), "B", "Result.Net.Bytes summed (exact)")
	rep.layer("mpi.shards_used", float64(t.shards), "count", "largest Result.Shards")
	rep.layer("mpi.peak_rank_state_b", float64(t.peakRankStateB), "B", "largest Result.PeakRankState (modeled)")
	return st
}

// gcCounters reads the runtime's GC count and total pause.
func gcCounters() (uint32, time.Duration) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC, time.Duration(ms.PauseTotalNs)
}

// phase is one closed-loop measurement: the jobs completed, the wall
// time, and the throughput of each window in it (a sweep pass, an
// intrepid job, a second of server traffic).
type phase struct {
	jobs  int
	wall  time.Duration
	rates []float64
}

// rate is the median window throughput, in jobs per second.
func (p phase) rate() float64 { return median(p.rates) }

// another reports whether a loop of whole windows, the last of which
// took last, should start one more to end nearest to d.
func another(wall, last, d time.Duration) bool { return wall == 0 || wall+last/2 < d }

// timed runs a workload's closed loop for o.seconds. A traced run
// spends the first half untraced and the second half recording spans,
// and reports the tracing overhead from the two rates; the phase
// returned is then the untraced half.
func timed(o options, rep *report, tr *tracer, loop func(tr *tracer, d time.Duration) phase) phase {
	gc0, pause0 := gcCounters()
	var p phase
	if !o.trace {
		p = loop(nil, o.seconds)
	} else {
		p = loop(nil, o.seconds/2)
		t := loop(tr, o.seconds/2)
		rep.layer("trace.overhead_pct", (p.rate()/t.rate()-1)*100, "%",
			fmt.Sprintf("untraced %.4g jobs/s (%d jobs) vs traced %.4g jobs/s (%d jobs), half the timed phase each", p.rate(), p.jobs, t.rate(), t.jobs))
	}
	gc1, pause1 := gcCounters()
	rep.layer("go.gc_count", float64(gc1-gc0), "count", "GC cycles during the timed phase")
	rep.layer("go.gc_pause_ms", float64(pause1-pause0)/1e6, "ms", "total GC stop-the-world pause during the timed phase")
	return p
}
