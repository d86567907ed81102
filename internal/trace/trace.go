// Package trace records simulation events — message sends, receive
// postings, matches, collective entries/exits, and per-rank fault
// marks — into a bounded in-memory buffer for debugging and for
// verifying communication structure in tests. Tracing is off unless a
// Buffer is attached to the run configuration.
//
// A Buffer is an obs.Probe consumer: the simulator records each event
// once, into the probe stream, and the buffer keeps the message-level
// hooks as Events and ignores the rest. A sharded run merges its
// per-shard streams by obs.MergeShardLogs, so the buffer sees the same
// events in the same order at any shard count.
package trace

import (
	"fmt"
	"io"

	"bgpsim/internal/obs"
	"bgpsim/internal/sim"
)

// Kind classifies a trace event.
type Kind int

// Event kinds.
const (
	Send Kind = iota
	RecvPost
	Match
	CollEnter
	CollExit
	// Fault marks a fault-layer action on a rank's timeline: a
	// user-level restart ("rank-restart"), one logged message replayed
	// into the restarting rank ("p2p-replay"), or a point-to-point
	// operation cancelled on a dead peer ("p2p-orphan"). Label names
	// the action; Peer and Bytes carry the peer rank and payload size
	// where applicable.
	Fault
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Send:
		return "send"
	case RecvPost:
		return "recv-post"
	case Match:
		return "match"
	case CollEnter:
		return "coll-enter"
	case CollExit:
		return "coll-exit"
	case Fault:
		return "fault"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one recorded occurrence.
type Event struct {
	T     sim.Time
	Rank  int
	Kind  Kind
	Peer  int // -1 when not applicable
	Bytes int
	Tag   int
	Label string // collective name, etc.
	Algo  string // collective algorithm ("bcast/binomial"); empty otherwise
}

// Buffer is a bounded event log. Events beyond the capacity are
// dropped (counted). The zero Buffer is unbounded; use NewBuffer to
// cap memory.
type Buffer struct {
	max     int
	events  []Event
	dropped int64

	// intern deduplicates Label/Algo strings. Collective keys are built
	// per rank per operation ("allreduce:17"), so a 160k-rank trace
	// would otherwise hold 160k copies of each; interning keeps one.
	intern map[string]string
}

// NewBuffer returns a buffer retaining at most max events (max <= 0
// means unbounded).
func NewBuffer(max int) *Buffer {
	return &Buffer{max: max}
}

// interned returns the canonical stored copy of s.
func (b *Buffer) interned(s string) string {
	if s == "" {
		return ""
	}
	if v, ok := b.intern[s]; ok {
		return v
	}
	if b.intern == nil {
		b.intern = make(map[string]string)
	}
	b.intern[s] = s
	return s
}

// Record appends an event, dropping it if the buffer is full.
func (b *Buffer) Record(e Event) {
	if b.max > 0 && len(b.events) >= b.max {
		b.dropped++
		return
	}
	e.Label = b.interned(e.Label)
	e.Algo = b.interned(e.Algo)
	b.events = append(b.events, e)
}

var _ obs.Probe = (*Buffer)(nil)

// Send implements obs.Probe.
func (b *Buffer) Send(rank int, t sim.Time, peer, bytes, tag int, coll bool) {
	b.Record(Event{T: t, Rank: rank, Kind: Send, Peer: peer, Bytes: bytes, Tag: tag})
}

// RecvPost implements obs.Probe.
func (b *Buffer) RecvPost(rank int, t sim.Time, src, tag int) {
	b.Record(Event{T: t, Rank: rank, Kind: RecvPost, Peer: src, Tag: tag})
}

// Match implements obs.Probe.
func (b *Buffer) Match(rank int, t sim.Time, peer int, sendT sim.Time, bytes, tag int, coll bool) {
	b.Record(Event{T: t, Rank: rank, Kind: Match, Peer: peer, Bytes: bytes, Tag: tag})
}

// CollEnter implements obs.Probe.
func (b *Buffer) CollEnter(rank int, t sim.Time, key, algo string) {
	b.Record(Event{T: t, Rank: rank, Kind: CollEnter, Peer: -1, Label: key, Algo: algo})
}

// CollExit implements obs.Probe.
func (b *Buffer) CollExit(rank int, t sim.Time, key, algo string) {
	b.Record(Event{T: t, Rank: rank, Kind: CollExit, Peer: -1, Label: key, Algo: algo})
}

// RankFault implements obs.Probe.
func (b *Buffer) RankFault(rank int, t sim.Time, kind string, peer, bytes int) {
	b.Record(Event{T: t, Rank: rank, Kind: Fault, Peer: peer, Bytes: bytes, Label: kind})
}

// ProcBlock, ProcUnblock, Compute, LinkBusy, Inject, Fault, and
// RankDone implement obs.Probe; the trace keeps none of them.
func (b *Buffer) ProcBlock(rank int, reason, detail string, t sim.Time)           {}
func (b *Buffer) ProcUnblock(rank int, t sim.Time)                                {}
func (b *Buffer) Compute(rank int, start sim.Time, d, noise sim.Duration)         {}
func (b *Buffer) LinkBusy(link int, start sim.Time, busy sim.Duration, bytes int) {}
func (b *Buffer) Inject(node int, t sim.Time, wait sim.Duration, bytes int)       {}
func (b *Buffer) Fault(t sim.Time, kind, detail string)                           {}
func (b *Buffer) RankDone(rank int, t sim.Time)                                   {}

// AddDropped counts n events that were offered for recording but
// discarded before they reached the buffer (the overflow of a sharded
// run's bounded per-shard logs).
func (b *Buffer) AddDropped(n int64) { b.dropped += n }

// Events returns the recorded events in order.
func (b *Buffer) Events() []Event { return b.events }

// Dropped returns how many events did not fit.
func (b *Buffer) Dropped() int64 { return b.dropped }

// Max returns the buffer's capacity (0 when unbounded).
func (b *Buffer) Max() int { return b.max }

// Len returns the number of retained events.
func (b *Buffer) Len() int { return len(b.events) }

// Filter returns the events satisfying keep.
func (b *Buffer) Filter(keep func(Event) bool) []Event {
	var out []Event
	for _, e := range b.events {
		if keep(e) {
			out = append(out, e)
		}
	}
	return out
}

// OfRank returns one rank's events.
func (b *Buffer) OfRank(rank int) []Event {
	return b.Filter(func(e Event) bool { return e.Rank == rank })
}

// OfKind returns events of one kind.
func (b *Buffer) OfKind(k Kind) []Event {
	return b.Filter(func(e Event) bool { return e.Kind == k })
}

// Dump writes a human-readable log.
func (b *Buffer) Dump(w io.Writer) error {
	for _, e := range b.events {
		var err error
		switch e.Kind {
		case Send:
			_, err = fmt.Fprintf(w, "%.9fs rank %d %s -> %d  %d bytes tag %d\n",
				e.T.Seconds(), e.Rank, e.Kind, e.Peer, e.Bytes, e.Tag)
		case RecvPost, Match:
			_, err = fmt.Fprintf(w, "%.9fs rank %d %s <- %d  tag %d\n",
				e.T.Seconds(), e.Rank, e.Kind, e.Peer, e.Tag)
		case Fault:
			_, err = fmt.Fprintf(w, "%.9fs rank %d %s %s peer %d  %d bytes\n",
				e.T.Seconds(), e.Rank, e.Kind, e.Label, e.Peer, e.Bytes)
		default:
			if e.Algo != "" {
				_, err = fmt.Fprintf(w, "%.9fs rank %d %s %s [%s]\n",
					e.T.Seconds(), e.Rank, e.Kind, e.Label, e.Algo)
			} else {
				_, err = fmt.Fprintf(w, "%.9fs rank %d %s %s\n",
					e.T.Seconds(), e.Rank, e.Kind, e.Label)
			}
		}
		if err != nil {
			return err
		}
	}
	if b.dropped > 0 {
		if _, err := fmt.Fprintf(w, "(%d events dropped)\n", b.dropped); err != nil {
			return err
		}
	}
	return nil
}
