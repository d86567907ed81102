package mpi

import (
	"testing"

	"bgpsim/internal/machine"
	"bgpsim/internal/network"
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

// TestCollectiveAllocsPerMessage guards the software collectives'
// recycled message records: a round's message and receive request come
// from the kernel's free lists, the matching key is a packed integer,
// and the message is its own event handler. A 64-rank
// pairwise alltoall sends 64×63 messages; once the list is warm, a
// repeat makes at most one object per rank, where a record per
// message would show as thousands.
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
		if got > ranks {
			t.Errorf("%d B pairwise alltoall over %d ranks allocated %.0f objects, want at most one per rank (%d)",
				bytes, ranks, got, ranks)
		}
	}
}

// TestSendrecvNoAllocsWarm guards the point-to-point path: once the
// free lists hold the two ranks' records, a Sendrecv ping-pong
// allocates nothing. The exact check counts the records the run made
// on a miss: the count must not grow with the repetitions, and all of
// them must be back on the lists when the run ends, so even one record
// in many that is never given back fails it. It reads 5, a receive
// request per rank and three messages: a rank may start its next send
// before its peer has given back the last message. The allocation
// count is a second, looser signal: a stray allocation of the
// runtime's own during the window reads as a few hundredths of an
// object per send; a record that is not recycled reads as one.
func TestSendrecvNoAllocsWarm(t *testing.T) {
	for _, bytes := range []int{8, 64 << 10} { // eager and rendezvous
		cfg := bgpConfig(1, machine.DUAL)
		op := func(r *Rank) {
			peer := 1 - r.ID()
			r.Sendrecv(peer, bytes, 0, peer, 0)
		}
		var made [2]int
		for i, reps := range []int{10, 40} {
			run, err := Begin(cfg, func(r *Rank) {
				for j := 0; j < reps; j++ {
					op(r)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := run.Finish(); err != nil {
				t.Fatal(err)
			}
			var free int
			made[i], free = recordCounts(run)
			if free != made[i] {
				t.Errorf("%d B Sendrecv, %d repetitions: %d records made, %d given back", bytes, reps, made[i], free)
			}
		}
		t.Logf("%d B Sendrecv: %d records made in 10 repetitions, %d in 40", bytes, made[0], made[1])
		if made[0] != made[1] || made[1] > 6 {
			t.Errorf("%d B Sendrecv: %d records made in 10 repetitions and %d in 40, want the same, at most three per rank",
				bytes, made[0], made[1])
		}
		if raceEnabled {
			continue // the race detector allocates on its own
		}
		got := perOp(t, cfg, 10, 40, op) / 2 // two sends per repetition
		t.Logf("%d B Sendrecv: %.2f objects per send", bytes, got)
		if got >= 0.1 {
			t.Errorf("%d B Sendrecv allocated %.2f objects per send, want 0", bytes, got)
		}
	}
}

// recordCounts returns the message records, messages and receive
// requests, that a finished run made on a miss and the number on its
// free lists.
func recordCounts(run *Running) (made, free int) {
	lists := []*records{&run.w.recs}
	for _, sh := range run.w.shards {
		lists = append(lists, &sh.recs)
	}
	for _, p := range lists {
		made += p.made
		free += len(p.msgs) + len(p.recvs)
	}
	return made, free
}

// TestRecordFreeListBounded runs the shapes of the contention sweep
// — pairwise alltoall, Rabenseifner allreduce, segmented bcast, linear
// gather, Sendrecv and persistent HALO-style rings, a Sendrecv to self
// and blocking receives — on the serial kernel and on one shard
// kernel, and requires the run to make a few records (messages and
// receive requests) per rank, and every one of them to be back on a
// list when the run ends: with one kernel, nothing these programs send
// may leak. The
// segmented bcast holds the most, about 10 per rank over the
// contention model: its 128 eager segments run ahead of the tree, each
// holding a message until its receiver reads it.
func TestRecordFreeListBounded(t *testing.T) {
	const ranks, perRank = 256, 16
	xt4 := Config{Machine: machine.Get(machine.XT4QC), Nodes: ranks / 4, Mode: machine.VN, Fidelity: network.Contention}
	ring := func(r *Rank, words int) {
		me, p := r.ID(), r.Size()
		less, more := (me+p-1)%p, (me+1)%p
		ch := []*PersistentRequest{r.RecvInit(more, 1), r.RecvInit(less, 2), r.SendInit(less, words, 1), r.SendInit(more, 2*words, 2)}
		for i := 0; i < 10; i++ {
			r.Sendrecv(less, words, 0, more, 0)
			r.Sendrecv(more, 2*words, 0, less, 0)
			StartAll(ch...)
			WaitAllPersistent(ch...)
			r.Sendrecv(me, words, 3, me, 3)
		}
	}
	for _, c := range []struct {
		name string
		cfg  Config
		prog func(*Rank)
	}{
		{"alltoall-pairwise", bgpConfig(ranks/4, machine.VN), func(r *Rank) {
			for _, b := range []int{1024, 16 << 10} {
				r.World().Alltoall(r, b)
			}
		}},
		{"allreduce-rabenseifner", xt4, func(r *Rank) { r.World().Allreduce(r, 1<<20, true) }},
		{"bcast-segmented", xt4, func(r *Rank) { r.World().Bcast(r, 0, 1<<20) }},
		{"gather-linear", bgpConfig(ranks/4, machine.VN), func(r *Rank) { r.World().Gather(r, 0, 4096) }},
		{"halo-rings", bgpConfig(ranks/4, machine.VN), func(r *Rank) { ring(r, 8000) }},
		{"recv", bgpConfig(ranks/4, machine.VN), func(r *Rank) {
			if r.ID() != 0 {
				r.Send(0, 64, 0)
				r.SendPayload(0, 8<<10, 1, r.ID())
				return
			}
			for i := 1; i < r.Size(); i++ {
				r.Recv(AnySource, 0)
				r.RecvPayload(AnySource, 1)
			}
		}},
	} {
		for _, shards := range []int{0, 1} {
			cfg := c.cfg
			cfg.Coll = map[string]string{"alltoall": "pairwise", "gather": "linear"}
			if shards > 0 {
				cfg.Fidelity, cfg.Shards = network.Analytic, shards
			}
			run, err := Begin(cfg, c.prog)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := run.Finish(); err != nil {
				t.Fatal(err)
			}
			made, free := recordCounts(run)
			t.Logf("%s, shards %d: %d records for %d ranks", c.name, shards, made, ranks)
			if made > perRank*ranks {
				t.Errorf("%s, shards %d: %d records for %d ranks, want at most %d per rank", c.name, shards, made, ranks, perRank)
			}
			if free != made {
				t.Errorf("%s, shards %d: %d records made, %d given back", c.name, shards, made, free)
			}
		}
	}
}
