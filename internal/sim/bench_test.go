package sim_test

// Kernel hot-path benchmarks, run by `make bench` into
// BENCH_kernel.json so the performance trajectory is tracked across
// PRs. BenchmarkKernelChurn includes a container/heap baseline that
// replicates the seed kernel's boxed event queue, so the fast path's
// alloc/op and ns/op advantage stays measurable long after the seed
// implementation is gone.

import (
	"container/heap"
	"fmt"
	"testing"

	"bgpsim/internal/machine"
	"bgpsim/internal/mpi"
	"bgpsim/internal/network"
	"bgpsim/internal/sim"
)

// boxedEvent/boxedHeap replicate the seed kernel's event queue:
// container/heap over an interface type, one boxing allocation per
// push.
type boxedEvent struct {
	t    sim.Time
	seq  uint64
	fire func()
}

type boxedHeap []boxedEvent

func (h boxedHeap) Len() int { return len(h) }
func (h boxedHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h boxedHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *boxedHeap) Push(x interface{}) { *h = append(*h, x.(boxedEvent)) }
func (h *boxedHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = boxedEvent{}
	*h = old[:n-1]
	return e
}

// churnWidth is the standing event population during queue churn;
// churnDeep is about the mean depth of the serial kernel's queue in a
// sweep-contention job (691).
const (
	churnWidth = 256
	churnDeep  = 1024
)

// BenchmarkKernelChurn measures schedule/fire throughput: a standing
// population of events where every fired event schedules a successor
// at a pseudo-random future offset. The fastpath cases drive the real
// kernel at two depths; the containerheap case drives the seed queue
// replica with the same workload as fastpath.
func BenchmarkKernelChurn(b *testing.B) {
	b.Run("fastpath", func(b *testing.B) { churn(b, churnWidth) })
	b.Run("fastpath-deep", func(b *testing.B) { churn(b, churnDeep) })
	b.Run("containerheap", func(b *testing.B) {
		b.ReportAllocs()
		var h boxedHeap
		var now sim.Time
		var seq uint64
		rng := sim.NewRNG(1)
		remaining := b.N
		var tick func()
		push := func() {
			seq++
			heap.Push(&h, boxedEvent{
				t:    now.Add(sim.Duration(rng.Intn(1000)+1) * sim.Nanosecond),
				seq:  seq,
				fire: tick,
			})
		}
		tick = func() {
			if remaining <= 0 {
				return
			}
			remaining--
			push()
		}
		for i := 0; i < churnWidth && i < b.N; i++ {
			remaining--
			push()
		}
		b.ResetTimer()
		for h.Len() > 0 {
			e := heap.Pop(&h).(boxedEvent)
			now = e.t
			e.fire()
		}
	})
}

// churn runs the kernel's churn workload with width standing events.
func churn(b *testing.B, width int) {
	b.ReportAllocs()
	k := sim.NewKernel()
	rng := sim.NewRNG(1)
	remaining := b.N
	var tick func()
	tick = func() {
		if remaining <= 0 {
			return
		}
		remaining--
		k.After(sim.Duration(rng.Intn(1000)+1)*sim.Nanosecond, tick)
	}
	for i := 0; i < width && i < b.N; i++ {
		remaining--
		k.After(sim.Duration(rng.Intn(1000)+1)*sim.Nanosecond, tick)
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkKernelPingPong measures the Spawn/Block/Wake resume path:
// two processes waking each other at the same timestamp, the pattern
// behind every eager-message handoff. Each iteration is one
// wake+block round trip per side.
func BenchmarkKernelPingPong(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel()
	n := b.N
	var ping, pong *sim.Proc
	ping = k.Spawn("ping", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			pong.Wake()
			p.Block("await pong")
		}
	})
	pong = k.Spawn("pong", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Block("await ping")
			ping.Wake()
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkKernelSleepFanout measures timed resumes through the heap:
// many processes sleeping pseudo-random durations, the pattern behind
// link-latency and compute-block modelling.
func BenchmarkKernelSleepFanout(b *testing.B) {
	b.ReportAllocs()
	const procs = 64
	k := sim.NewKernel()
	per := b.N/procs + 1
	for i := 0; i < procs; i++ {
		i := i
		k.Spawn("sleeper", func(p *sim.Proc) {
			rng := sim.NewRNG(uint64(i + 1))
			for j := 0; j < per; j++ {
				p.Sleep(sim.Duration(rng.Intn(1000)+1) * sim.Nanosecond)
			}
		})
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkKernelKeyedLockstep measures the keyed kernels' queue on
// the shape of a sharded halo step: 4096 tagged processes advance in
// lockstep, so every timestamp holds thousands of events. Each round
// every even process sleeps and then blocks, and its odd partner sleeps
// and then wakes it, an at-now arrival at the bucket being fired. One
// iteration is one event.
func BenchmarkKernelKeyedLockstep(b *testing.B) {
	const procs = 4096
	b.ReportAllocs()
	k := sim.NewKernel()
	k.Keyed()
	rounds := b.N/(procs*3/2) + 1
	ps := make([]*sim.Proc, procs)
	for i := range ps {
		i := i
		ps[i] = k.SpawnTagged("lockstep", i, func(p *sim.Proc) {
			for r := 0; r < rounds; r++ {
				p.Sleep(sim.Nanosecond)
				if i%2 == 0 {
					p.Block("await partner")
				} else {
					ps[i-1].Wake()
				}
			}
		})
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(k.Events())/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkKernelAllreduce512 is the end-to-end hot path: a 512-rank
// double-precision allreduce on BG/P (128 VN nodes), the collective
// the paper's Figure 3 sweeps. Allocations here cover the whole
// simulator stack, not just the queue.
func BenchmarkKernelAllreduce512(b *testing.B) {
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		res, err := mpi.Execute(mpi.Config{Machine: machine.Get(machine.BGP), Nodes: 128, Mode: machine.VN},
			func(r *mpi.Rank) { r.World().Allreduce(r, 8, true) })
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkKernelSharded measures the conservative-PDES kernel on a
// 4096-rank HALO step (64x64 virtual grid, 1024 BG/P VN nodes, analytic
// fidelity) at 1/2/4/8 shards. The shards=1 case is the sharded
// coordinator with a single domain — its gap to Allreduce512-style
// serial runs is the protocol overhead, and the higher counts show the
// scaling headroom (bounded above by the host's core count; see
// docs/PERFORMANCE.md).
func BenchmarkKernelSharded(b *testing.B) {
	const gx, gy = 64, 64 // 4096 ranks
	prog := func(r *mpi.Rank) {
		me := r.ID()
		x, y := me%gx, me/gx
		wrap := func(v, m int) int { return ((v % m) + m) % m }
		at := func(x, y int) int { return wrap(y, gy)*gx + wrap(x, gx) }
		r.Sendrecv(at(x, y-1), 4096, 1, at(x, y+1), 1)
		r.Sendrecv(at(x-1, y), 4096, 2, at(x+1, y), 2)
	}
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			var events uint64
			var elapsed sim.Duration
			for i := 0; i < b.N; i++ {
				res, err := mpi.Execute(mpi.Config{
					Machine: machine.Get(machine.BGP), Nodes: 1024, Mode: machine.VN,
					Fidelity: network.Analytic, Shards: shards,
				}, prog)
				if err != nil {
					b.Fatal(err)
				}
				if res.Shards != shards {
					b.Fatalf("ran on %d shards, want %d", res.Shards, shards)
				}
				if elapsed == 0 {
					elapsed = res.Elapsed
				} else if elapsed != res.Elapsed {
					b.Fatalf("nondeterministic elapsed: %d then %d", elapsed, res.Elapsed)
				}
				events += res.Events
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkKernelBcast512 exercises the software collective path: a
// 512-rank 4KB binomial broadcast on the XT4/QC torus (no collective
// hardware), covering the per-round keyed send/recv machinery the
// algorithm registry dispatches into.
func BenchmarkKernelBcast512(b *testing.B) {
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		res, err := mpi.Execute(mpi.Config{Machine: machine.Get(machine.XT4QC), Nodes: 128, Mode: machine.VN},
			func(r *mpi.Rank) { r.World().Bcast(r, 0, 4096) })
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}
