package mpi

import (
	"strings"
	"testing"

	"bgpsim/internal/machine"
	"bgpsim/internal/sim"
	"bgpsim/internal/trace"
)

// TestTraceDumpCoordinatorTieOrder: a restart processed by the sharded
// coordinator lands in the trace at the same position as on the serial
// kernel, where the fault event fires before every same-time rank
// event. Every rank reaches killT and posts a receive there, so the
// rank-restart line ties with eight recv-post lines and only the merge
// rule (coordinator first at equal times) keeps it in front.
func TestTraceDumpCoordinatorTieOrder(t *testing.T) {
	prog := func(r *Rank) {
		n := r.Size()
		r.Advance(sim.Duration(killT))
		q := r.Irecv((r.ID()+n-1)%n, 1)
		r.Send((r.ID()+1)%n, 64, 1)
		r.Wait(q)
	}
	dump := func(shards int) string {
		cfg := analyticConfig(8, machine.SMP)
		cfg.Faults = restartPlan(3, killT)
		cfg.Shards = shards
		tb := trace.NewBuffer(0)
		cfg.Trace = tb
		if _, err := Execute(cfg, prog); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		var b strings.Builder
		if err := tb.Dump(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	want := dump(0)
	if first, _, _ := strings.Cut(want, "\n"); !strings.Contains(first, "rank 3 fault rank-restart") {
		t.Fatalf("serial dump does not open with the restart:\n%s", want)
	}
	for _, n := range []int{1, 2, 4} {
		if got := dump(n); got != want {
			t.Errorf("shards=%d dump differs from serial:\n%s\nserial:\n%s", n, got, want)
		}
	}
}

// TestShardedTraceBoundedPerShard: with the trace buffer as the only
// consumer, a sharded run retains at most the buffer's capacity per
// log (each shard's and the coordinator's), yet keeps exactly the
// events a serial run keeps and counts the same drops.
func TestShardedTraceBoundedPerShard(t *testing.T) {
	const capN = 40
	prog := func(r *Rank) {
		n := r.Size()
		for i := 0; i < 4; i++ {
			r.Advance(10 * sim.Microsecond)
			r.Sendrecv((r.ID()+1)%n, 1000+100*r.ID(), 1, (r.ID()+n-1)%n, 1)
			r.World().Allreduce(r, 8, true)
		}
	}
	cfg := analyticConfig(16, machine.SMP)
	cfg.Faults = restartPlan(5, killT)
	dump := func(tb *trace.Buffer) string {
		var b strings.Builder
		if err := tb.Dump(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}

	serialCfg := cfg
	serialCfg.Trace = trace.NewBuffer(capN)
	serial, err := Execute(serialCfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if serial.DroppedEvents() == 0 {
		t.Fatalf("serial run dropped nothing; the capacity %d does not overflow", capN)
	}

	shardCfg := cfg
	shardCfg.Shards = 4
	shardCfg.Trace = trace.NewBuffer(capN)
	w, err := NewWorld(shardCfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards != 4 {
		t.Fatalf("ran on %d shards, want 4", res.Shards)
	}
	if n := w.coordLog.Len(); n > capN {
		t.Errorf("coordinator log retained %d entries, cap %d", n, capN)
	}
	for _, sh := range w.shards {
		if n := sh.pb.Len(); n > capN {
			t.Errorf("shard %d log retained %d entries, cap %d", sh.id, n, capN)
		}
	}
	if got, want := res.DroppedEvents(), serial.DroppedEvents(); got != want {
		t.Errorf("sharded run dropped %d events, serial %d", got, want)
	}
	if got, want := dump(shardCfg.Trace), dump(serialCfg.Trace); got != want {
		t.Errorf("bounded sharded dump differs from serial:\n%s\nserial:\n%s", got, want)
	}
}
