package obs

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"bgpsim/internal/sim"
)

// replayProbe records every replayed hook as one formatted line so the
// merge order — and every field of every entry — can be asserted.
type replayProbe struct{ lines []string }

func (p *replayProbe) add(format string, args ...any) {
	p.lines = append(p.lines, fmt.Sprintf(format, args...))
}
func (p *replayProbe) ProcBlock(rank int, reason, detail string, t sim.Time) {
	p.add("block %d %s|%s %d", rank, reason, detail, t)
}
func (p *replayProbe) ProcUnblock(rank int, t sim.Time) { p.add("unblock %d %d", rank, t) }
func (p *replayProbe) Compute(rank int, start sim.Time, d, noise sim.Duration) {
	p.add("compute %d %d %d %d", rank, start, d, noise)
}
func (p *replayProbe) Send(rank int, t sim.Time, peer, bytes, tag int, coll bool) {
	p.add("send %d %d %d %d %d %v", rank, t, peer, bytes, tag, coll)
}
func (p *replayProbe) RecvPost(rank int, t sim.Time, src, tag int) {
	p.add("recvpost %d %d %d %d", rank, t, src, tag)
}
func (p *replayProbe) Match(rank int, t sim.Time, peer int, sendT sim.Time, bytes, tag int, coll bool) {
	p.add("match %d %d %d %d %d %d %v", rank, t, peer, sendT, bytes, tag, coll)
}
func (p *replayProbe) CollEnter(rank int, t sim.Time, key, algo string) {
	p.add("collenter %d %d %s|%s", rank, t, key, algo)
}
func (p *replayProbe) CollExit(rank int, t sim.Time, key, algo string) {
	p.add("collexit %d %d %s|%s", rank, t, key, algo)
}
func (p *replayProbe) LinkBusy(link int, start sim.Time, busy sim.Duration, bytes int) {
	p.add("linkbusy %d %d %d %d", link, start, busy, bytes)
}
func (p *replayProbe) Inject(node int, t sim.Time, wait sim.Duration, bytes int) {
	p.add("inject %d %d %d %d", node, t, wait, bytes)
}
func (p *replayProbe) Fault(t sim.Time, kind, detail string) {
	p.add("fault %d %s|%s", t, kind, detail)
}
func (p *replayProbe) RankFault(rank int, t sim.Time, kind string, peer, bytes int) {
	p.add("rankfault %d %d %s %d %d", rank, t, kind, peer, bytes)
}
func (p *replayProbe) RankDone(rank int, t sim.Time) { p.add("done %d %d", rank, t) }

// TestShardLogReplayAllHooks buffers one call of every Probe hook and
// checks each replays into the destination with all fields intact.
func TestShardLogReplayAllHooks(t *testing.T) {
	l := NewShardLog(0)
	l.ProcBlock(3, "recv", " tag 9", 10)
	l.ProcUnblock(3, 11)
	l.Compute(2, 12, 100, 7)
	l.Send(1, 13, 4, 512, 9, false)
	l.RecvPost(4, 13, 1, 9)
	l.Match(4, 14, 1, 13, 512, 9, true)
	l.CollEnter(0, 15, "allreduce", "ring")
	l.CollExit(0, 16, "allreduce", "ring")
	l.LinkBusy(27, 17, 55, 4096)
	l.Inject(6, 18, 3, 256)
	l.Fault(19, "node-kill", "node 5")
	l.RankFault(5, 19, "p2p-replay", 2, 64)
	l.RankDone(7, 20)
	if l.Len() != 13 {
		t.Fatalf("Len = %d, want 13", l.Len())
	}

	var got replayProbe
	MergeShardLogs(&got, nil, []*ShardLog{l})
	want := []string{
		"block 3 recv| tag 9 10",
		"unblock 3 11",
		"compute 2 12 100 7",
		"send 1 13 4 512 9 false",
		"recvpost 4 13 1 9",
		"match 4 14 1 13 512 9 true",
		"collenter 0 15 allreduce|ring",
		"collexit 0 16 allreduce|ring",
		"linkbusy 27 17 55 4096",
		"inject 6 18 3 256",
		"fault 19 node-kill|node 5",
		"rankfault 5 19 p2p-replay 2 64",
		"done 7 20",
	}
	if len(got.lines) != len(want) {
		t.Fatalf("replayed %d lines, want %d:\n%v", len(got.lines), len(want), got.lines)
	}
	for i := range want {
		if got.lines[i] != want[i] {
			t.Errorf("line %d = %q, want %q", i, got.lines[i], want[i])
		}
	}
}

// TestMergeShardLogsOrder checks the deterministic merge rule:
// ascending time; at equal times coordinator entries first, then
// ascending rank, then per-source call order.
func TestMergeShardLogsOrder(t *testing.T) {
	coord := NewShardLog(0)
	coord.Fault(20, "node-kill", "node 3") // same t as rank entries below

	s0 := NewShardLog(0)
	s0.ProcUnblock(0, 20)
	s0.ProcUnblock(0, 30) // later time, logged early in its source
	s1 := NewShardLog(0)
	s1.ProcUnblock(5, 10) // earliest time overall
	s1.ProcUnblock(5, 20)
	s1.ProcUnblock(6, 20) // same (t); higher rank than the rank-5 entry

	var got replayProbe
	MergeShardLogs(&got, coord, []*ShardLog{s0, s1})
	want := []string{
		"unblock 5 10",
		"fault 20 node-kill|node 3", // coord first at t=20 (rank -1 anyway)
		"unblock 0 20",
		"unblock 5 20",
		"unblock 6 20",
		"unblock 0 30",
	}
	if len(got.lines) != len(want) {
		t.Fatalf("merged %d lines, want %d:\n%v", len(got.lines), len(want), got.lines)
	}
	for i := range want {
		if got.lines[i] != want[i] {
			t.Errorf("line %d = %q, want %q", i, got.lines[i], want[i])
		}
	}

	// nil destination and nil sources must be no-ops, not panics.
	MergeShardLogs(nil, coord, []*ShardLog{s0})
	var again replayProbe
	MergeShardLogs(&again, nil, []*ShardLog{nil, s1})
	if len(again.lines) != 3 {
		t.Errorf("nil-tolerant merge replayed %d lines, want 3", len(again.lines))
	}
}

// firstN keeps the first n replayed lines and counts the rest, like a
// bounded trace buffer.
type firstN struct {
	replayProbe
	n       int
	dropped int64
}

func (p *firstN) Send(rank int, t sim.Time, peer, bytes, tag int, coll bool) {
	if len(p.lines) >= p.n {
		p.dropped++
		return
	}
	p.replayProbe.Send(rank, t, peer, bytes, tag, coll)
}

// TestBoundedShardLogsKeepMergedPrefix is the property the sharded
// trace relies on: for random per-shard streams (nondecreasing time,
// many same-time ties between ranks in arbitrary call order), merging
// logs bounded at n into a consumer that keeps n entries gives exactly
// the prefix and drop count that merging unbounded logs gives, and no
// bounded log ever holds more than n entries.
func TestBoundedShardLogsKeepMergedPrefix(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 300; trial++ {
		nshards := 1 + rng.IntN(4)
		n := 1 + rng.IntN(20)
		bounded := make([]*ShardLog, nshards)
		full := make([]*ShardLog, nshards)
		for s := range bounded {
			bounded[s], full[s] = NewShardLog(n), NewShardLog(0)
			var at sim.Time
			for i := rng.IntN(40); i > 0; i-- {
				if rng.IntN(3) == 0 {
					at += sim.Time(1 + rng.IntN(3))
				}
				rank := s*8 + rng.IntN(8) // disjoint rank sets, as shards have
				for _, l := range []*ShardLog{bounded[s], full[s]} {
					l.Send(rank, at, i, 0, 0, false)
				}
			}
			if bounded[s].Len() > n {
				t.Fatalf("trial %d: shard %d retained %d entries, cap %d", trial, s, bounded[s].Len(), n)
			}
		}
		got, want := &firstN{n: n}, &firstN{n: n}
		got.dropped += MergeShardLogs(got, nil, bounded)
		if d := MergeShardLogs(want, nil, full); d != 0 {
			t.Fatalf("unbounded logs dropped %d", d)
		}
		if strings.Join(got.lines, "\n") != strings.Join(want.lines, "\n") || got.dropped != want.dropped {
			t.Fatalf("trial %d (cap %d): bounded merge kept\n%v (+%d dropped)\nunbounded merge kept\n%v (+%d dropped)",
				trial, n, got.lines, got.dropped, want.lines, want.dropped)
		}
	}
}
