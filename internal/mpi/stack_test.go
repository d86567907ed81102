package mpi

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"testing"
	"time"

	"bgpsim/internal/machine"
)

// stackMetrics reads the runtime's goroutine stack memory and the
// starting size it gives new goroutines.
func stackMetrics() (stacks, start uint64) {
	s := []metrics.Sample{
		{Name: "/memory/classes/heap/stacks:bytes"},
		{Name: "/gc/stack/starting-size:bytes"},
	}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// TestCollectiveStackBudget is TestRankStackBudget's (internal/halo)
// twin for the software collectives over the contention model: a
// 1,024-rank Rabenseifner allreduce, segmented binomial bcast and
// pairwise alltoall. Unlike the HALO paths these do not fit the 2 KB
// starting stack (docs/PERFORMANCE.md, "Rank stack budget"): the
// runColl and algorithm frames put each round's allocation about 440 B
// below the rank program's frame, so a malloc that refills its span,
// and a rendezvous match that schedules the bulk transfer, run past
// 2 KB and the rank is copied to a 4 KB stack once per job. The test
// pins what must still hold. No rank path runs past 4 KB: a sampler
// reads the stack memory during the run, and the peak above the
// pre-run baseline must stay under 7 KB per rank (a grown rank's 4 KB
// stack plus the 2 KB one it left reads up to about 5.5 KB; a rank
// that grew again would read at least 8 KB). And no garbage collection
// raises the starting size above 2 KB, which would give every
// goroutine of the process a 4 KB stack.
func TestCollectiveStackBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race builds change frame sizes")
	}
	if testing.Short() {
		t.Skip("1,024-rank contention runs")
	}
	const budget = 7168 // bytes per rank
	xt4 := Config{Machine: machine.Get(machine.XT4QC), Nodes: 256, Mode: machine.VN}
	bgp := bgpConfig(256, machine.VN)
	for _, c := range []struct {
		name string
		cfg  Config
		algo string // the algorithm the stock table must pick
		op   string
		prog func(*Rank)
	}{
		{"allreduce-rabenseifner", xt4, "allreduce/rabenseifner", "allreduce",
			func(r *Rank) { r.World().Allreduce(r, 1<<20, true) }},
		{"bcast-segmented", xt4, "bcast/binomial-pipelined", "bcast",
			func(r *Rank) { r.World().Bcast(r, 0, 1<<20) }},
		{"alltoall-pairwise", bgp, "alltoall/pairwise", "alltoall",
			func(r *Rank) { r.World().Alltoall(r, 1024) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			runtime.GC()
			base, _ := stackMetrics()
			var peak, maxStart uint64
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				tick := time.NewTicker(200 * time.Microsecond)
				defer tick.Stop()
				for {
					select {
					case <-stop:
						return
					case <-tick.C:
						s, st := stackMetrics()
						peak, maxStart = max(peak, s), max(maxStart, st)
					}
				}
			}()
			res, err := Execute(c.cfg, c.prog)
			close(stop)
			wg.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Net.Collectives[c.algo].Ops; got != 1 {
				t.Fatalf("%s ran %v, want one %s", c.op, res.Net.Collectives, c.algo)
			}
			ranks := uint64(len(res.RankElapsed))
			perRank := float64(peak-min(base, peak)) / float64(ranks)
			t.Logf("%d ranks: peak rank stacks %.0f B/rank above baseline; starting size up to %d B", ranks, perRank, maxStart)
			if perRank > budget {
				t.Errorf("rank stacks peaked at %.0f B/rank, budget %d B/rank", perRank, budget)
			}
			if maxStart > 2048 {
				t.Errorf("starting stack size rose to %d B during the run, want 2048", maxStart)
			}
		})
	}
}
