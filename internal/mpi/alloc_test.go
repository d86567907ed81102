package mpi

import (
	"testing"

	"bgpsim/internal/machine"
)

// runAllocs returns the heap objects one Execute of prog allocates,
// averaged over a few runs.
func runAllocs(t *testing.T, cfg Config, prog func(*Rank)) float64 {
	t.Helper()
	return testing.AllocsPerRun(3, func() {
		if _, err := Execute(cfg, prog); err != nil {
			t.Fatal(err)
		}
	})
}

// perOp isolates the objects of one repeated operation from a run's
// fixed cost: it runs the program with lo and hi repetitions and
// returns the difference per extra repetition.
func perOp(t *testing.T, cfg Config, lo, hi int, op func(r *Rank)) float64 {
	t.Helper()
	prog := func(n int) func(*Rank) {
		return func(r *Rank) {
			for i := 0; i < n; i++ {
				op(r)
			}
		}
	}
	return (runAllocs(t, cfg, prog(hi)) - runAllocs(t, cfg, prog(lo))) / float64(hi-lo)
}

// TestCollectiveAllocsPerMessage guards the software collectives' one
// allocation per message: a round's send and receive share one
// exchange record, the matching key is a packed integer, and the
// message is its own event handler. A 64-rank pairwise alltoall sends
// 64×63 messages; anything per rank or per round beyond that record
// shows up as thousands of objects.
func TestCollectiveAllocsPerMessage(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const ranks = 64
	msgs := float64(ranks * (ranks - 1))
	for _, bytes := range []int{1024, 64 << 10} { // eager and rendezvous
		cfg := bgpConfig(ranks/4, machine.VN)
		cfg.Coll = map[string]string{"alltoall": "pairwise"}
		got := perOp(t, cfg, 1, 3, func(r *Rank) { r.World().Alltoall(r, bytes) })
		t.Logf("%d B alltoall: %.0f objects for %.0f messages", bytes, got, msgs)
		if got > msgs+ranks {
			t.Errorf("%d B pairwise alltoall over %d ranks allocated %.0f objects, want at most one per message (%.0f) plus %d",
				bytes, ranks, got, msgs, ranks)
		}
	}
}

// TestSendrecvOneAllocPerSend guards the point-to-point path: a
// Sendrecv ping-pong allocates one object per send, the exchange
// record holding the message and the receive's request.
func TestSendrecvOneAllocPerSend(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, bytes := range []int{8, 64 << 10} { // eager and rendezvous
		cfg := bgpConfig(1, machine.DUAL)
		got := perOp(t, cfg, 10, 40, func(r *Rank) {
			peer := 1 - r.ID()
			r.Sendrecv(peer, bytes, 0, peer, 0)
		}) / 2 // two sends per repetition
		t.Logf("%d B Sendrecv: %.2f objects per send", bytes, got)
		if got > 1 {
			t.Errorf("%d B Sendrecv allocated %.2f objects per send, want 1", bytes, got)
		}
	}
}
