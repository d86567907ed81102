package trace

import (
	"strings"
	"testing"

	"bgpsim/internal/obs"
	"bgpsim/internal/sim"
)

func TestBufferBounded(t *testing.T) {
	b := NewBuffer(3)
	for i := 0; i < 5; i++ {
		b.Record(Event{T: sim.Time(i), Rank: i, Kind: Send})
	}
	if b.Len() != 3 || b.Dropped() != 2 {
		t.Errorf("len=%d dropped=%d", b.Len(), b.Dropped())
	}
}

func TestBufferUnbounded(t *testing.T) {
	var b Buffer
	for i := 0; i < 100; i++ {
		b.Record(Event{Rank: i})
	}
	if b.Len() != 100 || b.Dropped() != 0 {
		t.Error("zero buffer should be unbounded")
	}
}

func TestFilters(t *testing.T) {
	b := NewBuffer(0)
	b.Record(Event{Rank: 1, Kind: Send})
	b.Record(Event{Rank: 2, Kind: Match})
	b.Record(Event{Rank: 1, Kind: Match})
	if len(b.OfRank(1)) != 2 {
		t.Error("OfRank wrong")
	}
	if len(b.OfKind(Match)) != 2 {
		t.Error("OfKind wrong")
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		Send: "send", RecvPost: "recv-post", Match: "match",
		CollEnter: "coll-enter", CollExit: "coll-exit",
	} {
		if k.String() != want {
			t.Errorf("%d = %q, want %q", k, k.String(), want)
		}
	}
	if Kind(42).String() == "" {
		t.Error("unknown kind should format")
	}
}

func TestDump(t *testing.T) {
	b := NewBuffer(2)
	b.Record(Event{T: sim.Time(1000), Rank: 0, Kind: Send, Peer: 1, Bytes: 64, Tag: 7})
	b.Record(Event{T: sim.Time(2000), Rank: 1, Kind: CollEnter, Peer: -1, Label: "#0:barrier"})
	b.Record(Event{Rank: 2}) // dropped
	var sb strings.Builder
	if err := b.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"send -> 1", "64 bytes", "coll-enter #0:barrier", "1 events dropped"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}

// TestBufferAsProbe feeds every obs.Probe hook: the rank-event hooks
// become Events (printed in every Dump line shape), the rest are
// ignored, and AddDropped joins the overflow count.
func TestBufferAsProbe(t *testing.T) {
	var p obs.Probe = NewBuffer(0)
	p.ProcBlock(0, "MPI_Wait", "(recv)", 1)
	p.ProcUnblock(0, 2)
	p.Compute(0, 3, 10, 1)
	p.LinkBusy(4, 5, 6, 7)
	p.Inject(0, 5, 1, 64)
	p.Fault(5, "node-kill", "node 3")
	p.RankDone(0, 99)
	p.Send(0, 1000, 1, 64, 7, false)
	p.RecvPost(1, 1000, 0, -1) // wildcard tag
	p.Match(1, 2000, 0, 1000, 64, 7, false)
	p.CollEnter(2, 3000, "#0:bcast", "bcast/binomial")
	p.CollExit(2, 4000, "#0:bcast", "bcast/binomial")
	p.RankFault(3, 5000, "p2p-replay", 0, 64)
	b := p.(*Buffer)
	b.AddDropped(2)
	var sb strings.Builder
	if err := b.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	want := `0.000000001s rank 0 send -> 1  64 bytes tag 7
0.000000001s rank 1 recv-post <- 0  tag -1
0.000000002s rank 1 match <- 0  tag 7
0.000000003s rank 2 coll-enter #0:bcast [bcast/binomial]
0.000000004s rank 2 coll-exit #0:bcast [bcast/binomial]
0.000000005s rank 3 fault p2p-replay peer 0  64 bytes
(2 events dropped)
`
	if got := sb.String(); got != want {
		t.Errorf("dump:\n%s\nwant:\n%s", got, want)
	}
}
