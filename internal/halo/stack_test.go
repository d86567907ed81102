package halo

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"testing"
	"time"

	"bgpsim/internal/machine"
	"bgpsim/internal/topology"
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

// TestRankStackBudget pins the rank stack budget (docs/PERFORMANCE.md):
// every rank coroutine of a sharded analytic HALO run must stay within
// the runtime's 2 KB starting stack. A sampler reads the stack memory
// while 16,384 ranks run; the peak above the pre-run baseline must stay
// under 2.5 KB per rank (a rank whose path runs past 2 KB is copied to
// a 4 KB stack, so a deep path reads about 4 KB per rank). No garbage
// collection during the run may raise the starting size above 2 KB,
// which it does once the mean parked rank stack passes ~1.1 KB.
func TestRankStackBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race builds change frame sizes")
	}
	const budget = 2560 // bytes per rank
	for _, p := range []Protocol{IsendIrecv, SendRecv, IrecvSend, Persistent} {
		t.Run(p.String(), func(t *testing.T) {
			o := Options{Machine: machine.BGP, Mode: machine.VN, GridX: 128, GridY: 128,
				Mapping: topology.MapXYZT, Protocol: p, Words: 1000, Iterations: 1,
				Analytic: true, Shards: 2}
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
			_, err := Run(o)
			close(stop)
			wg.Wait()
			if err != nil {
				t.Fatal(err)
			}
			ranks := uint64(o.GridX * o.GridY)
			perRank := float64(peak-min(base, peak)) / float64(ranks)
			t.Logf("peak rank stacks %.0f B/rank above baseline; starting size up to %d B", perRank, maxStart)
			if perRank > budget {
				t.Errorf("rank stacks peaked at %.0f B/rank, budget %d B/rank", perRank, budget)
			}
			if maxStart > 2048 {
				t.Errorf("starting stack size rose to %d B during the run, want 2048", maxStart)
			}
		})
	}
}
