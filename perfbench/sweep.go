package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"bgpsim/internal/jobspec"
	"bgpsim/internal/runner"
)

// sweepWorkers is the runner pool size: the default -j on a 2-core host.
const sweepWorkers = 2

// sweepList is the sweep-contention job list: contention-fidelity jobs
// of 0.05-2 s each whose host time goes to the serial sim kernel, mpi
// matching and collectives, and network contention. The seed draws
// each size from a narrow band, so every seed's list costs about the
// same; the list runs largest first, so the two workers finish a pass
// together.
func sweepList(seed uint64) []jobspec.Spec {
	rng := rand.New(rand.NewPCG(seed, 1))
	// band draws a size uniformly from [lo, hi].
	band := func(lo, hi int) *int { v := lo + rng.IntN(hi-lo+1); return &v }
	const kib, mib = 1 << 10, 1 << 20
	alltoall := func(ranks int, bytes *int) jobspec.Spec {
		return jobspec.Spec{Kind: jobspec.KindBench, Machine: "BG/P", Bench: "alltoall", Ranks: ranks, Bytes: bytes}
	}
	xt4 := func(bench string, ranks int, bytes *int) jobspec.Spec {
		return jobspec.Spec{Kind: jobspec.KindBench, Machine: "XT4/QC", Bench: bench, Ranks: ranks, Bytes: bytes}
	}
	halos := func(grid, iters int) []jobspec.Spec {
		var l []jobspec.Spec
		for _, proto := range []string{"isend", "sendrecv", "irecvsend", "persistent"} {
			for _, mapping := range []string{"TXYZ", "XYZT"} {
				l = append(l, jobspec.Spec{Kind: jobspec.KindHalo, Machine: "BG/P", GridX: grid, GridY: grid,
					Iterations: iters, Words: *band(800, 1200), Protocol: proto, Mapping: mapping})
			}
		}
		return l
	}
	var l []jobspec.Spec
	for _, ranks := range []int{512, 256} {
		l = append(l, alltoall(ranks, band(12*kib, 16*kib)), alltoall(ranks, band(1*kib, 5*kib/4)))
	}
	for _, ranks := range []int{1024, 512, 256} {
		l = append(l, xt4("bcast", ranks, band(7*mib/8, mib)))
	}
	l = append(l, halos(32, 5)...)
	for _, ranks := range []int{1024, 512, 256} {
		l = append(l, xt4("allreduce", ranks, band(7*mib/8, mib)), xt4("allreduce", ranks, band(4*kib, 5*kib)),
			xt4("allreduce", ranks, band(8, 16)))
	}
	l = append(l, alltoall(128, band(12*kib, 16*kib)), alltoall(128, band(1*kib, 5*kib/4)))
	for _, ranks := range []int{1024, 512, 256} {
		l = append(l, xt4("bcast", ranks, band(48*kib, 64*kib)))
	}
	l = append(l, halos(16, 10)...)
	l = append(l, halos(8, 40)...)
	return l
}

const sweepSizes = "BG/P alltoall 128-512 ranks 1-16 KiB; XT4/QC allreduce 256-1024 ranks 8 B-1 MiB and bcast 48 KiB-1 MiB; BG/P HALO 8x8-32x32, 4 protocols x TXYZ/XYZT"

// runSweep is the sweep-contention workload: a closed loop of whole
// passes over the job list on runner.MapN with two workers,
// observability off.
func runSweep(o options, rep *report) error {
	list, err := timeSetup(rep, 3, "generate and validate the job list, run one 256-rank alltoall warm-up job", func() ([]jobspec.Spec, error) {
		l := sweepList(o.seed)
		for _, s := range l {
			if err := s.Validate(); err != nil {
				return nil, err
			}
		}
		_, err := runSpec(nil, -1, 0, l[2])
		return l, err
	}, nil)
	if err != nil {
		return err
	}

	// ref holds pass one's output per job; later passes must match it.
	ref := make([][]byte, len(list))
	var mu sync.Mutex
	var busy time.Duration
	pass := func(tr *tracer) time.Duration {
		t0 := time.Now()
		ps := tr.open("runner.mapn", -1, -1)
		runner.MapN(len(list), sweepWorkers, func(i int) (struct{}, error) {
			out, err := runSpec(tr, ps, i, list[i])
			mu.Lock()
			defer mu.Unlock()
			busy += out.took
			switch {
			case err != nil:
				rep.job(fmt.Sprintf("job %d: %v", i, err))
			case len(out.stderr) > 0:
				rep.job(fmt.Sprintf("job %d: stderr %q", i, out.stderr))
			case ref[i] == nil:
				ref[i] = out.stdout
				rep.job("")
			case !bytes.Equal(ref[i], out.stdout):
				rep.job(fmt.Sprintf("job %d: output differs between passes", i))
			default:
				rep.job("")
			}
			return struct{}{}, nil
		})
		tr.close(ps)
		return time.Since(t0)
	}

	tr := newTracer()
	var tracedWall time.Duration
	p := timed(o, rep, tr, func(tr *tracer, d time.Duration) phase {
		var p phase
		var last time.Duration
		busy = 0
		for another(p.wall, last, d) {
			last = pass(tr)
			p.jobs += len(list)
			p.wall += last
			p.rates = append(p.rates, float64(len(list))/last.Seconds())
		}
		tracedWall = p.wall
		return p
	})
	rep.e2e("jobs_per_s", p.rate(), "1/s",
		fmt.Sprintf("median of %d passes over a %d-job list (%d jobs, %.3f s), %d workers (%s)", len(p.rates), len(list), p.jobs, p.wall.Seconds(), sweepWorkers, sweepSizes))
	d := newDigest()
	for _, b := range ref {
		d.add(b)
	}
	checkDigest(o, rep, d.sum())

	if o.trace {
		rep.layer("runner.busy_frac", busy.Seconds()/(tracedWall.Seconds()*sweepWorkers), "frac",
			fmt.Sprintf("job time / (wall x %d workers) over the traced half", sweepWorkers))
		t, _ := decompose(tr, rep, list, sweepWorkers)
		reportLayers(rep, tr, t)
		if err := tr.write(".bench_build/spans", fmt.Sprintf("%s-%d.json", o.workload, o.seed)); err != nil {
			return err
		}
	}
	return reportMemory(rep)
}
