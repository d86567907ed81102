package mpi

import (
	"errors"
	"testing"

	"bgpsim/internal/machine"
	"bgpsim/internal/network"
	"bgpsim/internal/sim"
)

// Edge cases for the prefix-scan and reduce-scatter collectives:
// non-power-of-two communicator sizes exercise the remainder handling
// (fold/unfold, partial subtrees) and zero-byte calls must still
// synchronize rather than wedge or skip ranks.

func TestScanEdgeCases(t *testing.T) {
	for _, algo := range CollAlgos("scan") {
		for _, ranks := range []int{5, 9, 12} {
			for _, bytes := range []int{0, 1000} {
				algo, ranks, bytes := algo, ranks, bytes
				cfg := xtCollConfig(ranks)
				cfg.Coll = map[string]string{"scan": algo}
				calls := 0
				res := mustRun(t, cfg, func(r *Rank) {
					r.World().Scan(r, bytes)
					if r.ID() == 0 {
						calls++
					}
				})
				if calls != 1 {
					t.Fatalf("scan/%s p=%d b=%d: rank 0 ran %d times", algo, ranks, bytes, calls)
				}
				if res.Elapsed <= 0 {
					t.Errorf("scan/%s p=%d b=%d: elapsed %v", algo, ranks, bytes, res.Elapsed)
				}
			}
		}
	}
}

func TestReduceScatterEdgeCases(t *testing.T) {
	for _, algo := range CollAlgos("reducescatter") {
		for _, ranks := range []int{5, 9, 12} {
			for _, bytes := range []int{0, 1000} {
				algo, ranks, bytes := algo, ranks, bytes
				cfg := xtCollConfig(ranks)
				cfg.Coll = map[string]string{"reducescatter": algo}
				res := mustRun(t, cfg, func(r *Rank) {
					r.World().ReduceScatter(r, bytes)
				})
				if res.Elapsed <= 0 {
					t.Errorf("reducescatter/%s p=%d b=%d: elapsed %v", algo, ranks, bytes, res.Elapsed)
				}
			}
		}
	}
}

func TestScanReduceScatterDeterministic(t *testing.T) {
	run := func() *Result {
		return mustRun(t, xtCollConfig(9), func(r *Rank) {
			r.World().Scan(r, 777)
			r.World().ReduceScatter(r, 777)
		})
	}
	a, b := run(), run()
	if a.Elapsed != b.Elapsed || a.Events != b.Events {
		t.Errorf("runs differ: %v/%d vs %v/%d", a.Elapsed, a.Events, b.Elapsed, b.Events)
	}
}

func TestScanReduceScatterSingleRank(t *testing.T) {
	// p == 1: every algorithm must return immediately without messages.
	for _, op := range []string{"scan", "reducescatter"} {
		for _, algo := range CollAlgos(op) {
			op, algo := op, algo
			cfg := xtCollConfig(1)
			cfg.Coll = map[string]string{op: algo}
			res := mustRun(t, cfg, func(r *Rank) {
				runCollOp(r, op, 4096)
			})
			if res.Net.Messages != 0 {
				t.Errorf("%s/%s p=1 sent %d messages", op, algo, res.Net.Messages)
			}
		}
	}
}

// TestCollectiveNonMemberPanics checks that a rank calling a collective
// on a communicator it does not belong to fails the run with a clear
// message naming the rank and the communicator, instead of indexing
// past the members' sequence counters.
func TestCollectiveNonMemberPanics(t *testing.T) {
	for _, shards := range []int{0, 2} {
		cfg := bgpConfig(2, machine.VN)
		cfg.Fidelity = network.Analytic
		cfg.Shards = shards
		var comms [2]*Comm
		_, err := Execute(cfg, func(r *Rank) {
			c := r.World().Split(r, r.ID()%2, 0)
			if r.ID() < 2 {
				comms[r.ID()] = c // rank i has color i
			}
			r.World().Barrier(r)
			if r.ID() == 0 {
				comms[1].Barrier(r)
			}
			c.Barrier(r)
		})
		var pe *sim.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("shards=%d: err = %v, want *sim.PanicError", shards, err)
		}
		want := `mpi: rank 0 is not a member of communicator "/#0:split:1"`
		if pe.Value != want {
			t.Errorf("shards=%d: panic value = %v, want %s", shards, pe.Value, want)
		}
	}
}
