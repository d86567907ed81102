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
// pairwise alltoall. A sampler reads the stack memory during the run,
// and the peak above the pre-run baseline must stay within each case's
// budget per rank. The allreduce and the alltoall fit the 2 KB
// starting stack (docs/PERFORMANCE.md, "Rank stack budget") now that a
// round takes its message record from the kernel's free list instead
// of allocating it about 440 B below the rank program's frame; their
// budget is 2.5 KB, which a run that copied most of its ranks to 4 KB
// stacks exceeds. The segmented bcast does not fit yet: a receive that
// finds its rendezvous header already queued matches it on the rank's
// stack (post, matched, rendezvous, then the contention model), which
// runs past 2 KB, so some ranks are copied to a 4 KB stack once per
// job. Its budget only pins that no rank path runs past 4 KB: 7 KB per
// rank (a grown rank's 4 KB stack plus the 2 KB one it left reads up
// to about 5.5 KB; a rank that grew again would read at least 8 KB).
// And no garbage collection may raise the starting size above 2 KB,
// which would give every goroutine of the process a 4 KB stack.
func TestCollectiveStackBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race builds change frame sizes")
	}
	if testing.Short() {
		t.Skip("1,024-rank contention runs")
	}
	xt4 := Config{Machine: machine.Get(machine.XT4QC), Nodes: 256, Mode: machine.VN}
	bgp := bgpConfig(256, machine.VN)
	for _, c := range []struct {
		name   string
		cfg    Config
		algo   string // the algorithm the stock table must pick
		op     string
		budget float64 // bytes per rank
		prog   func(*Rank)
	}{
		{"allreduce-rabenseifner", xt4, "allreduce/rabenseifner", "allreduce", 2560,
			func(r *Rank) { r.World().Allreduce(r, 1<<20, true) }},
		{"bcast-segmented", xt4, "bcast/binomial-pipelined", "bcast", 7168,
			func(r *Rank) { r.World().Bcast(r, 0, 1<<20) }},
		{"alltoall-pairwise", bgp, "alltoall/pairwise", "alltoall", 2560,
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
			if perRank > c.budget {
				t.Errorf("rank stacks peaked at %.0f B/rank, budget %.0f B/rank", perRank, c.budget)
			}
			if maxStart > 2048 {
				t.Errorf("starting stack size rose to %d B during the run, want 2048", maxStart)
			}
		})
	}
}
