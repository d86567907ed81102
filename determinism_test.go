package bgpsim_test

// Golden determinism tests: the event-kernel fast path (monotone radix
// event queue, closure-free process resumes) must reproduce the seed
// container/heap kernel bit for bit, and concurrent simulations must
// not perturb each other. The constants below were captured from the
// seed kernel before the fast path landed; any drift is a determinism
// regression, not a tolerance issue.

import (
	"fmt"
	"testing"

	"bgpsim/internal/halo"
	"bgpsim/internal/imb"
	"bgpsim/internal/machine"
	"bgpsim/internal/mpi"
	"bgpsim/internal/network"
	"bgpsim/internal/runner"
	"bgpsim/internal/sim"
	"bgpsim/internal/topology"
)

// goldenAllreduce runs the contention-mode collective workload: a
// 32 KiB double-precision allreduce on 64 BG/P nodes in VN mode.
func goldenAllreduce() (*mpi.Result, error) {
	return mpi.Execute(mpi.Config{Machine: machine.Get(machine.BGP), Nodes: 64,
		Mode: machine.VN, Fidelity: network.Contention},
		func(r *mpi.Rank) { r.World().Allreduce(r, 32<<10, true) })
}

// goldenRing runs the packet-fidelity ring exchange workload on XT4/QC.
func goldenRing() (*mpi.Result, error) {
	return mpi.Execute(mpi.Config{Machine: machine.Get(machine.XT4QC), Nodes: 32,
		Mode: machine.VN, Fidelity: network.Packet},
		func(r *mpi.Rank) {
			right := (r.ID() + 1) % r.Size()
			left := (r.ID() - 1 + r.Size()) % r.Size()
			for k := 0; k < 4; k++ {
				r.Sendrecv(right, 16<<10, k, left, k)
			}
		})
}

// goldenShardedHalo runs the shard-eligible golden workload: the HALO
// exchange under the analytic network model (the only fidelity the
// sharded kernel accepts), split across the given number of domains.
// shards == 1 is the baseline the higher counts must reproduce.
func goldenShardedHalo(shards int) (sim.Duration, *mpi.Result, error) {
	return halo.RunResult(halo.Options{Machine: machine.BGP, Mode: machine.VN,
		GridX: 16, GridY: 8, Mapping: topology.MapTXYZ,
		Protocol: halo.IsendIrecv, Words: 2048, Iterations: 3,
		Analytic: true, Shards: shards})
}

const (
	seedAllreduceElapsed = sim.Duration(79101176)
	seedAllreduceEvents  = uint64(512)
	seedHaloDur          = sim.Duration(398397677)
	seedBcastDur         = sim.Duration(39550588)
	seedRingElapsed      = sim.Duration(130792824)
	seedRingEvents       = uint64(2176)

	// Captured from the sharded kernel at -shards 1; every other shard
	// count must reproduce them exactly.
	shardedHaloDur    = sim.Duration(90051176)
	shardedHaloEvents = uint64(7968)
)

func TestGoldenSeedKernelValues(t *testing.T) {
	res, err := goldenAllreduce()
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed != seedAllreduceElapsed || res.Events != seedAllreduceEvents {
		t.Errorf("contention allreduce: elapsed=%d events=%d, seed kernel gave elapsed=%d events=%d",
			int64(res.Elapsed), res.Events, int64(seedAllreduceElapsed), seedAllreduceEvents)
	}

	d, err := halo.Run(halo.Options{Machine: machine.BGP, Mode: machine.VN,
		GridX: 16, GridY: 8, Mapping: topology.MapTXYZ,
		Protocol: halo.IsendIrecv, Words: 2048, Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	if d != seedHaloDur {
		t.Errorf("halo: dur=%d, seed kernel gave %d", int64(d), int64(seedHaloDur))
	}

	d, err = imb.BcastLatency(machine.BGP, 256, 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	if d != seedBcastDur {
		t.Errorf("bcast: dur=%d, seed kernel gave %d", int64(d), int64(seedBcastDur))
	}

	res, err = goldenRing()
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed != seedRingElapsed || res.Events != seedRingEvents {
		t.Errorf("packet ring: elapsed=%d events=%d, seed kernel gave elapsed=%d events=%d",
			int64(res.Elapsed), res.Events, int64(seedRingElapsed), seedRingEvents)
	}
}

// TestGoldenShardedKernelValues pins the sharded kernel's canonical
// result: every shard count must produce the same elapsed time and
// event count, equal to the pinned -shards 1 baseline. A drift at any
// single count is a determinism regression in the conservative-PDES
// synchronization or the canonical event ordering.
func TestGoldenShardedKernelValues(t *testing.T) {
	for _, s := range []int{1, 2, 4, 8} {
		d, res, err := goldenShardedHalo(s)
		if err != nil {
			t.Fatalf("shards=%d: %v", s, err)
		}
		if res.Shards != s {
			t.Errorf("shards=%d: ran on %d shards (fallback?)", s, res.Shards)
		}
		if d != shardedHaloDur || res.Events != shardedHaloEvents {
			t.Errorf("shards=%d: dur=%d events=%d, want dur=%d events=%d",
				s, int64(d), res.Events, int64(shardedHaloDur), shardedHaloEvents)
		}
	}
}

// TestGoldenShardedAtAnyWorkerCount interleaves sharded runs at mixed
// shard counts on runner pools of different widths: stdout-visible
// results must be byte-identical at any -shards N and any -j N
// combination, including shard counts exceeding GOMAXPROCS.
func TestGoldenShardedAtAnyWorkerCount(t *testing.T) {
	counts := []int{1, 2, 4, 8}
	for _, workers := range []int{1, 4} {
		got, err := runner.MapN(2*len(counts), workers, func(i int) (sim.Duration, error) {
			d, res, err := goldenShardedHalo(counts[i%len(counts)])
			if err != nil {
				return 0, err
			}
			if res.Events != shardedHaloEvents {
				return 0, fmt.Errorf("events=%d, want %d", res.Events, shardedHaloEvents)
			}
			return d, nil
		})
		if err != nil {
			t.Fatalf("j=%d: %v", workers, err)
		}
		for i, d := range got {
			if d != shardedHaloDur {
				t.Errorf("j=%d run %d (shards=%d): dur=%d, want %d",
					workers, i, counts[i%len(counts)], int64(d), int64(shardedHaloDur))
			}
		}
	}
}

// TestConcurrentRunsMatchSerial runs many simulations concurrently on
// the runner pool and checks every result against its serial value:
// each bgpsim run owns a private kernel, so cross-simulation
// parallelism must not change any individual outcome. Run under
// `go test -race` this also proves the runs share no state.
func TestConcurrentRunsMatchSerial(t *testing.T) {
	type job func() (sim.Duration, error)
	jobs := []job{
		func() (sim.Duration, error) {
			res, err := goldenAllreduce()
			if err != nil {
				return 0, err
			}
			return res.Elapsed, nil
		},
		func() (sim.Duration, error) {
			return halo.Run(halo.Options{Machine: machine.BGP, Mode: machine.VN,
				GridX: 16, GridY: 8, Mapping: topology.MapTXYZ,
				Protocol: halo.IsendIrecv, Words: 2048, Iterations: 3})
		},
		func() (sim.Duration, error) { return imb.BcastLatency(machine.BGP, 256, 32<<10) },
		func() (sim.Duration, error) {
			res, err := goldenRing()
			if err != nil {
				return 0, err
			}
			return res.Elapsed, nil
		},
	}

	serial := make([]sim.Duration, len(jobs))
	for i, j := range jobs {
		d, err := j()
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = d
	}

	// 8 interleaved copies of each workload on an 8-wide pool.
	const copies = 8
	got, err := runner.MapN(copies*len(jobs), 8, func(i int) (sim.Duration, error) {
		return jobs[i%len(jobs)]()
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range got {
		if want := serial[i%len(jobs)]; d != want {
			t.Errorf("concurrent run %d: elapsed=%d, serial gave %d", i, int64(d), int64(want))
		}
	}
}
