package mpi

import (
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"testing"
	"time"

	"bgpsim/internal/machine"
	"bgpsim/internal/network"
	"bgpsim/internal/sim"
)

// errReleaseBoom is the model error the Fail case aborts with.
var errReleaseBoom = errors.New("rank 5 gave up")

// TestFailedRunReleasesProcesses checks that a run ending in a
// deadlock, a Fail in one rank, or an exceeded event limit leaves no
// rank process behind — serial and sharded — and that releasing them
// does not change the returned error. The error hashes were captured
// before processes were released at all.
func TestFailedRunReleasesProcesses(t *testing.T) {
	const ranks = 1024
	cases := []struct {
		name    string
		limit   uint64
		prog    func(*Rank)
		check   func(error) bool
		errHash map[int]string // FNV-64a of err.Error() by shard count
	}{
		{
			// Ranks 1..1023 wait for a message rank 0 never sends.
			name: "deadlock",
			prog: func(r *Rank) {
				if r.ID() != 0 {
					r.Recv(0, 0)
				}
			},
			check: func(err error) bool {
				var de *sim.DeadlockError
				return errors.As(err, &de) && len(de.Blocked) == ranks-1
			},
			errHash: map[int]string{0: "ff6a105b71ccedd6", 2: "ff6a105b71ccedd6"},
		},
		{
			name: "fail",
			prog: func(r *Rank) {
				if r.ID() == 5 {
					r.Advance(sim.Microsecond)
					sim.Fail(errReleaseBoom)
				}
				r.Recv(AnySource, 0)
			},
			check:   func(err error) bool { return errors.Is(err, errReleaseBoom) },
			errHash: map[int]string{0: "a7c1047680d6a9e6", 2: "a7c1047680d6a9e6"},
		},
		{
			name:  "event limit",
			limit: 3000,
			prog: func(r *Rank) {
				for i := 0; i < 100; i++ {
					r.Advance(sim.Nanosecond)
				}
			},
			check:   func(err error) bool { return strings.Contains(err.Error(), "event limit 3000 exceeded") },
			errHash: map[int]string{0: "5b8c56af6080a2b0", 2: "86f023af7919f263"},
		},
	}
	for _, c := range cases {
		for _, shards := range []int{0, 2} {
			t.Run(fmt.Sprintf("%s/shards=%d", c.name, shards), func(t *testing.T) {
				base := runtime.NumGoroutine()
				cfg := Config{
					Machine:    machine.Get(machine.BGP),
					Nodes:      ranks / 4,
					Mode:       machine.VN,
					Fidelity:   network.Analytic,
					EventLimit: c.limit,
					Shards:     shards,
				}
				_, err := Execute(cfg, c.prog)
				if err == nil || !c.check(err) {
					t.Fatalf("err = %.200v", err)
				}
				h := fnv.New64a()
				h.Write([]byte(err.Error()))
				if got := fmt.Sprintf("%x", h.Sum64()); got != c.errHash[shards] {
					t.Errorf("error text hash = %s, want %s: %.300v", got, c.errHash[shards], err)
				}
				n := runtime.NumGoroutine()
				for i := 0; i < 100 && n > base; i++ {
					time.Sleep(10 * time.Millisecond)
					n = runtime.NumGoroutine()
				}
				if n > base {
					t.Errorf("%d goroutines after the run, %d before", n, base)
				}
			})
		}
	}
}
