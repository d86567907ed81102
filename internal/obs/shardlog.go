package obs

import (
	"sort"

	"bgpsim/internal/sim"
)

// probeKind discriminates the recorded hook of one shardEntry.
type probeKind uint8

const (
	pkProcBlock probeKind = iota
	pkProcUnblock
	pkCompute
	pkSend
	pkRecvPost
	pkMatch
	pkCollEnter
	pkCollExit
	pkLinkBusy
	pkInject
	pkFault
	pkRankFault
	pkRankDone
)

// shardEntry is one recorded probe call. A single struct covers every
// hook; unused fields stay zero.
type shardEntry struct {
	kind probeKind
	t    sim.Time
	rank int // world rank; also carries link/node for LinkBusy/Inject

	peer  int
	bytes int
	tag   int
	coll  bool

	d     sim.Duration // Compute d, LinkBusy busy, Inject wait
	noise sim.Duration
	sendT sim.Time

	s1 string // reason / key / fault kind
	s2 string // detail / algo / fault detail
}

// before reports whether e sorts before f in the merge order, for two
// entries of one log with e recorded after f: ascending time, then
// rank; equal keys keep call order, so e then sorts after f.
func (e *shardEntry) before(f *shardEntry) bool {
	if e.t != f.t {
		return e.t < f.t
	}
	return e.rank < f.rank
}

// ShardLog buffers the probe stream of one shard kernel so a sharded
// run can observe through per-shard recorders and merge them into the
// user's probe deterministically after the run. It implements Probe
// (and therefore sim.Probe). A ShardLog is used from a single shard
// goroutine at a time and needs no locking.
type ShardLog struct {
	entries []shardEntry
	max     int
	dropped int64
}

// NewShardLog returns an empty log retaining at most max entries (max
// <= 0 means unbounded). A bounded log stands in for a consumer that
// keeps only the first max entries of the merged stream, such as a
// bounded trace buffer: it retains the max entries that come first in
// merge order and counts the rest (see MergeShardLogs).
func NewShardLog(max int) *ShardLog { return &ShardLog{max: max} }

// add appends e. A full bounded log drops one entry instead: e itself,
// or — when e ties the latest retained timestamp and sorts before some
// retained entry there — the retained entry that sorts last, so the
// log always holds its first max entries in merge order. Entries
// arrive in nondecreasing time (each log is fed by one kernel, or by
// the coordinator in fault order), so only the latest timestamp can
// tie.
func (l *ShardLog) add(e shardEntry) {
	if l.max <= 0 || len(l.entries) < l.max {
		l.entries = append(l.entries, e)
		return
	}
	l.dropped++
	last := len(l.entries) - 1
	j := last
	for i := last - 1; i >= 0 && l.entries[i].t == e.t; i-- {
		if l.entries[j].before(&l.entries[i]) {
			j = i
		}
	}
	if !e.before(&l.entries[j]) {
		return
	}
	copy(l.entries[j:], l.entries[j+1:])
	l.entries[last] = e
}

// ProcBlock implements Probe.
func (l *ShardLog) ProcBlock(rank int, reason, detail string, t sim.Time) {
	l.add(shardEntry{kind: pkProcBlock, t: t, rank: rank, s1: reason, s2: detail})
}

// ProcUnblock implements Probe.
func (l *ShardLog) ProcUnblock(rank int, t sim.Time) {
	l.add(shardEntry{kind: pkProcUnblock, t: t, rank: rank})
}

// Compute implements Probe.
func (l *ShardLog) Compute(rank int, start sim.Time, d, noise sim.Duration) {
	l.add(shardEntry{kind: pkCompute, t: start, rank: rank, d: d, noise: noise})
}

// Send implements Probe.
func (l *ShardLog) Send(rank int, t sim.Time, peer, bytes, tag int, coll bool) {
	l.add(shardEntry{kind: pkSend, t: t, rank: rank, peer: peer, bytes: bytes, tag: tag, coll: coll})
}

// RecvPost implements Probe.
func (l *ShardLog) RecvPost(rank int, t sim.Time, src, tag int) {
	l.add(shardEntry{kind: pkRecvPost, t: t, rank: rank, peer: src, tag: tag})
}

// Match implements Probe.
func (l *ShardLog) Match(rank int, t sim.Time, peer int, sendT sim.Time, bytes, tag int, coll bool) {
	l.add(shardEntry{kind: pkMatch, t: t, rank: rank, peer: peer, sendT: sendT, bytes: bytes, tag: tag, coll: coll})
}

// CollEnter implements Probe.
func (l *ShardLog) CollEnter(rank int, t sim.Time, key, algo string) {
	l.add(shardEntry{kind: pkCollEnter, t: t, rank: rank, s1: key, s2: algo})
}

// CollExit implements Probe.
func (l *ShardLog) CollExit(rank int, t sim.Time, key, algo string) {
	l.add(shardEntry{kind: pkCollExit, t: t, rank: rank, s1: key, s2: algo})
}

// LinkBusy implements Probe. (Shardable fidelities never reserve
// links, but the coordinator's own net may.)
func (l *ShardLog) LinkBusy(link int, start sim.Time, busy sim.Duration, bytes int) {
	l.add(shardEntry{kind: pkLinkBusy, t: start, rank: link, d: busy, bytes: bytes})
}

// Inject implements Probe.
func (l *ShardLog) Inject(node int, t sim.Time, wait sim.Duration, bytes int) {
	l.add(shardEntry{kind: pkInject, t: t, rank: node, d: wait, bytes: bytes})
}

// Fault implements Probe.
func (l *ShardLog) Fault(t sim.Time, kind, detail string) {
	l.add(shardEntry{kind: pkFault, t: t, rank: -1, s1: kind, s2: detail})
}

// RankFault implements Probe.
func (l *ShardLog) RankFault(rank int, t sim.Time, kind string, peer, bytes int) {
	l.add(shardEntry{kind: pkRankFault, t: t, rank: rank, s1: kind, peer: peer, bytes: bytes})
}

// RankDone implements Probe.
func (l *ShardLog) RankDone(rank int, t sim.Time) {
	l.add(shardEntry{kind: pkRankDone, t: t, rank: rank})
}

// Len returns the number of buffered entries.
func (l *ShardLog) Len() int { return len(l.entries) }

// replay plays one entry into dst.
func (e *shardEntry) replay(dst Probe) {
	switch e.kind {
	case pkProcBlock:
		dst.ProcBlock(e.rank, e.s1, e.s2, e.t)
	case pkProcUnblock:
		dst.ProcUnblock(e.rank, e.t)
	case pkCompute:
		dst.Compute(e.rank, e.t, e.d, e.noise)
	case pkSend:
		dst.Send(e.rank, e.t, e.peer, e.bytes, e.tag, e.coll)
	case pkRecvPost:
		dst.RecvPost(e.rank, e.t, e.peer, e.tag)
	case pkMatch:
		dst.Match(e.rank, e.t, e.peer, e.sendT, e.bytes, e.tag, e.coll)
	case pkCollEnter:
		dst.CollEnter(e.rank, e.t, e.s1, e.s2)
	case pkCollExit:
		dst.CollExit(e.rank, e.t, e.s1, e.s2)
	case pkLinkBusy:
		dst.LinkBusy(e.rank, e.t, e.d, e.bytes)
	case pkInject:
		dst.Inject(e.rank, e.t, e.d, e.bytes)
	case pkFault:
		dst.Fault(e.t, e.s1, e.s2)
	case pkRankFault:
		dst.RankFault(e.rank, e.t, e.s1, e.peer, e.bytes)
	case pkRankDone:
		dst.RankDone(e.rank, e.t)
	}
}

// MergeShardLogs replays the coordinator's and every shard's buffered
// probe stream into dst in the deterministic merge order of the
// sharded kernel: ascending timestamp; at equal timestamps coordinator
// entries (fault processing, recovery charges) first — they correspond
// to serial events scheduled before any same-time rank event — then
// ascending world rank, then each source's own call order. Shard rank
// sets are disjoint, so the rank key totally orders cross-shard
// entries. It returns the number of calls bounded logs dropped.
//
// Bounded logs lose nothing a consumer of the same capacity keeps:
// each retains its first max entries in this order, and an entry
// inside the merged stream's first max is preceded there by every
// entry of its own log that sorts before it — fewer than max of them —
// so it lies inside its log's retained prefix. A bounded consumer fed
// the merge therefore keeps exactly what it would keep of the whole
// stream; its drop count is what it discards plus what this returns.
func MergeShardLogs(dst Probe, coord *ShardLog, shards []*ShardLog) (dropped int64) {
	if coord != nil {
		dropped += coord.dropped
	}
	for _, l := range shards {
		if l != nil {
			dropped += l.dropped
		}
	}
	if dst == nil {
		return dropped
	}
	type tagged struct {
		e     *shardEntry
		coord bool
		idx   int // call order within its source log
	}
	var n int
	if coord != nil {
		n += len(coord.entries)
	}
	for _, l := range shards {
		if l != nil {
			n += len(l.entries)
		}
	}
	all := make([]tagged, 0, n)
	if coord != nil {
		for i := range coord.entries {
			all = append(all, tagged{e: &coord.entries[i], coord: true, idx: i})
		}
	}
	for _, l := range shards {
		if l == nil {
			continue
		}
		for i := range l.entries {
			all = append(all, tagged{e: &l.entries[i], idx: i})
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.e.t != b.e.t {
			return a.e.t < b.e.t
		}
		if a.coord != b.coord {
			return a.coord
		}
		if a.e.rank != b.e.rank {
			return a.e.rank < b.e.rank
		}
		return a.idx < b.idx
	})
	for _, t := range all {
		t.e.replay(dst)
	}
	return dropped
}
