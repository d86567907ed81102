package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"time"

	"bgpsim/internal/jobspec"
)

// intrepidSpec is the full-Intrepid job: one HALO exchange on all
// 163,840 BG/P VN ranks (40,960 nodes), analytic network, two kernel
// shards. The seed draws the halo size, which moves no event count.
func intrepidSpec(seed uint64) jobspec.Spec {
	rng := rand.New(rand.NewPCG(seed, 2))
	return jobspec.Spec{Kind: jobspec.KindHalo, Machine: "BG/P", Mode: "VN", GridX: 512, GridY: 320,
		Words: 900 + rng.IntN(201), Iterations: 1, Fidelity: "analytic", Shards: 2}
}

// runIntrepid is the intrepid-sharded workload: a closed loop of the
// full-Intrepid job through jobspec.Run, the only workload on the
// sharded conservative kernel at full scale.
func runIntrepid(o options, rep *report) error {
	spec, err := timeSetup(rep, 3, "validate the spec, run its 81,920-rank (256x320) half as an untimed warm-up job", func() (jobspec.Spec, error) {
		s := intrepidSpec(o.seed)
		if err := s.Validate(); err != nil {
			return s, err
		}
		warm := s
		warm.GridX /= 2
		_, err := runSpec(nil, -1, 0, warm)
		return s, err
	}, nil)
	if err != nil {
		return err
	}

	var ref []byte
	tr := newTracer()
	p := timed(o, rep, tr, func(tr *tracer, d time.Duration) phase {
		var p phase
		var last time.Duration
		for another(p.wall, last, d) {
			out, err := runSpec(tr, -1, p.jobs, spec)
			last = out.took
			p.jobs++
			p.wall += last
			p.rates = append(p.rates, 1/last.Seconds())
			n := p.jobs
			switch {
			case err != nil:
				rep.job(fmt.Sprintf("job %d: %v", n, err))
			case len(out.stderr) > 0:
				// A serial-fallback note lands here.
				rep.job(fmt.Sprintf("job %d: stderr %q", n, out.stderr))
			case ref == nil:
				ref = out.stdout
				rep.job("")
			case !bytes.Equal(ref, out.stdout):
				rep.job(fmt.Sprintf("job %d: output differs from job 1's", n))
			default:
				rep.job("")
			}
		}
		return p
	})
	rep.e2e("jobs_per_s", p.rate(), "1/s",
		fmt.Sprintf("median of %d jobs (%.3f s): HALO 512x320 grid = 163,840 BG/P VN ranks, %d words, 1 iteration, analytic, 2 shards", p.jobs, p.wall.Seconds(), spec.Words))
	d := newDigest()
	d.add(ref)
	checkDigest(o, rep, d.sum())

	if o.trace {
		if err := haloWorld(tr, -1, spec); err != nil {
			return err
		}
		t, _ := decompose(tr, rep, []jobspec.Spec{spec}, 1)
		st := reportLayers(rep, tr, t)
		rep.check(t.shards == 2, "sharded job used %d shards, want 2", t.shards)
		// The same job on one shard, for the measured speedup.
		serial := spec
		serial.Shards = 1
		one := newTracer()
		l, err := runLayers(one, 0, serial)
		if err != nil {
			return err
		}
		rep.check(l.res.Events == uint64(t.events), "shards 1 fired %d events, shards 2 %d", l.res.Events, t.events)
		s1, s2 := one.selfTimes()["mpi.run"].self, st["mpi.run"].self
		rep.layer("mpi.shard_speedup", s1.Seconds()/s2.Seconds(), "x",
			fmt.Sprintf("halo.RunResult host time at shards 1 (%.3f s) over shards 2 (%.3f s), same job, %d-core host", s1.Seconds(), s2.Seconds(), 2))
		if err := tr.write(".bench_build/spans", fmt.Sprintf("%s-%d.json", o.workload, o.seed)); err != nil {
			return err
		}
	}
	return reportMemory(rep)
}
