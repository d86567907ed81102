package obs

import (
	"strings"

	"bgpsim/internal/sim"
)

// DefaultBucket is the link-telemetry bucket width used when a
// Recorder is built with NewRecorder.
const DefaultBucket = 100 * sim.Microsecond

// Recorder is the standard Probe implementation: it accumulates the
// probe stream into per-rank timelines, per-link utilization buckets,
// injection-queue telemetry, and the dependency records the
// critical-path walk consumes. A Recorder belongs to one run; it is
// driven from that run's single-threaded kernel and must not be shared
// between concurrent simulations (give each sweep point its own).
type Recorder struct {
	bucket sim.Duration

	// maxSegs, when positive, caps the total retained timeline
	// segments and collective spans across all ranks; the overflow is
	// counted, never silently discarded.
	maxSegs     int
	segsHeld    int
	droppedSegs int64

	ranks  map[int]*rankState
	links  map[int]*linkState
	inject map[int]*injectState
	faults []FaultEvent

	// collEnters tracks, per collective key, the member that entered
	// last — the rank the critical path blames for the collective's
	// synchronization cost.
	collEnters map[string]collEnter

	lastT sim.Time // latest timestamp seen (the run's extent)
}

// FaultEvent is one recorded fault activation.
type FaultEvent struct {
	T      sim.Time
	Kind   string
	Detail string
}

type rankState struct {
	id    int
	segs  []Segment
	colls []CollSpan

	// Open block, if any.
	blocked    bool
	blockStart sim.Time
	blockKind  SegKind
	blockKey   string

	collDepth int

	// Last receive match, for attributing the wait that it released.
	matchOK    bool
	matchT     sim.Time
	matchPeer  int
	matchSendT sim.Time

	compute  sim.Duration
	noise    sim.Duration
	p2pWait  sim.Duration
	collWait sim.Duration

	sends     int64
	sentBytes int64
	collOps   int64

	done   sim.Time
	doneOK bool
}

type linkState struct {
	busy    sim.Duration
	bytes   int64
	msgs    int64
	buckets []sim.Duration // busy time per bucket
}

type injectState struct {
	msgs    int64
	bytes   int64
	waited  int64 // messages that queued at all
	wait    sim.Duration
	maxWait sim.Duration
}

type collEnter struct {
	lastRank int
	lastT    sim.Time
	members  int
}

// NewRecorder returns a recorder with the default link-telemetry
// bucket width and no segment cap.
func NewRecorder() *Recorder {
	return NewRecorderWith(DefaultBucket, 0)
}

// NewRecorderWith returns a recorder with an explicit bucket width
// (DefaultBucket if bucket <= 0) and a cap on retained timeline
// segments and collective spans (unbounded if maxSegs <= 0). Beyond
// the cap, segments are dropped and counted — totals and the profile
// stay exact, only the timeline views lose detail.
func NewRecorderWith(bucket sim.Duration, maxSegs int) *Recorder {
	if bucket <= 0 {
		bucket = DefaultBucket
	}
	return &Recorder{
		bucket:     bucket,
		maxSegs:    maxSegs,
		ranks:      make(map[int]*rankState),
		links:      make(map[int]*linkState),
		inject:     make(map[int]*injectState),
		collEnters: make(map[string]collEnter),
	}
}

// Bucket returns the link-telemetry bucket width.
func (rec *Recorder) Bucket() sim.Duration { return rec.bucket }

// DroppedSegments returns how many timeline segments and collective
// spans were discarded by the segment cap.
func (rec *Recorder) DroppedSegments() int64 { return rec.droppedSegs }

// Faults returns the recorded fault activations in order.
func (rec *Recorder) Faults() []FaultEvent { return rec.faults }

func (rec *Recorder) rank(id int) *rankState {
	rs, ok := rec.ranks[id]
	if !ok {
		rs = &rankState{id: id, matchPeer: -1}
		rec.ranks[id] = rs
	}
	return rs
}

func (rec *Recorder) see(t sim.Time) {
	if t > rec.lastT {
		rec.lastT = t
	}
}

// keepSeg reports whether another segment may be retained, counting
// the drop otherwise.
func (rec *Recorder) keepSeg() bool {
	if rec.maxSegs > 0 && rec.segsHeld >= rec.maxSegs {
		rec.droppedSegs++
		return false
	}
	rec.segsHeld++
	return true
}

// ProcBlock implements Probe: a rank suspended. Classification: a gate
// wait carries the "collective " reason with the key as detail; a p2p
// wait issued between CollEnter and CollExit belongs to the enclosing
// collective (a software algorithm's internal traffic); anything else
// is application-level p2p wait.
func (rec *Recorder) ProcBlock(rank int, reason, detail string, t sim.Time) {
	if rank < 0 {
		return
	}
	rec.see(t)
	rs := rec.rank(rank)
	rs.blocked = true
	rs.blockStart = t
	rs.blockKey = ""
	switch {
	case strings.HasPrefix(reason, "collective"):
		rs.blockKind = SegCollWait
		rs.blockKey = detail
	case rs.collDepth > 0:
		rs.blockKind = SegCollWait
	default:
		rs.blockKind = SegP2PWait
	}
}

// ProcUnblock implements Probe: a blocked rank resumed, closing the
// open wait segment.
func (rec *Recorder) ProcUnblock(rank int, t sim.Time) {
	if rank < 0 {
		return
	}
	rec.see(t)
	rs := rec.rank(rank)
	if !rs.blocked {
		return
	}
	rs.blocked = false
	d := t.Sub(rs.blockStart)
	seg := Segment{Kind: rs.blockKind, Start: rs.blockStart, End: t, Peer: -1, Key: rs.blockKey}
	switch rs.blockKind {
	case SegCollWait:
		rs.collWait += d
	default:
		rs.p2pWait += d
	}
	// Attribute the release to the message matched during the wait, if
	// any — the edge the critical path follows off this rank.
	if rs.matchOK && rs.matchT >= rs.blockStart && rs.matchT <= t {
		seg.Peer = rs.matchPeer
		seg.SendT = rs.matchSendT
	}
	if d > 0 && rec.keepSeg() {
		rs.segs = append(rs.segs, seg)
	}
}

// Compute implements Probe.
func (rec *Recorder) Compute(rank int, start sim.Time, d, noise sim.Duration) {
	if rank < 0 || d <= 0 {
		return
	}
	end := start.Add(d)
	rec.see(end)
	rs := rec.rank(rank)
	rs.compute += d - noise
	rs.noise += noise
	if rec.keepSeg() {
		rs.segs = append(rs.segs, Segment{Kind: SegCompute, Start: start, End: end, Peer: -1})
	}
}

// Send implements Probe.
func (rec *Recorder) Send(rank int, t sim.Time, peer, bytes, tag int, coll bool) {
	if rank < 0 {
		return
	}
	rec.see(t)
	rs := rec.rank(rank)
	rs.sends++
	rs.sentBytes += int64(bytes)
}

// RecvPost implements Probe. Receive postings carry nothing the
// timeline views use.
func (rec *Recorder) RecvPost(rank int, t sim.Time, src, tag int) {}

// Match implements Probe.
func (rec *Recorder) Match(rank int, t sim.Time, peer int, sendT sim.Time, bytes, tag int, coll bool) {
	if rank < 0 {
		return
	}
	rec.see(t)
	rs := rec.rank(rank)
	rs.matchOK = true
	rs.matchT = t
	rs.matchPeer = peer
	rs.matchSendT = sendT
}

// CollEnter implements Probe.
func (rec *Recorder) CollEnter(rank int, t sim.Time, key, algo string) {
	if rank < 0 {
		return
	}
	rec.see(t)
	rs := rec.rank(rank)
	rs.collDepth++
	rs.collOps++
	if rec.keepSeg() {
		rs.colls = append(rs.colls, CollSpan{Key: key, Algo: algo, Enter: t, Exit: -1})
	}
	e := rec.collEnters[key]
	e.members++
	if e.members == 1 || t >= e.lastT {
		e.lastRank, e.lastT = rank, t
	}
	rec.collEnters[key] = e
}

// CollExit implements Probe.
func (rec *Recorder) CollExit(rank int, t sim.Time, key, algo string) {
	if rank < 0 {
		return
	}
	rec.see(t)
	rs := rec.rank(rank)
	if rs.collDepth > 0 {
		rs.collDepth--
	}
	// Close the innermost open span with this key (spans nest).
	for i := len(rs.colls) - 1; i >= 0; i-- {
		if rs.colls[i].Key == key && rs.colls[i].Exit < 0 {
			rs.colls[i].Exit = t
			break
		}
	}
}

// LinkBusy implements Probe: accumulate the reservation into the
// link's total and its time buckets.
func (rec *Recorder) LinkBusy(link int, start sim.Time, busy sim.Duration, bytes int) {
	if busy <= 0 {
		return
	}
	end := start.Add(busy)
	rec.see(end)
	ls, ok := rec.links[link]
	if !ok {
		ls = &linkState{}
		rec.links[link] = ls
	}
	ls.busy += busy
	ls.bytes += int64(bytes)
	ls.msgs++
	// Spread the busy interval over the buckets it overlaps.
	b0 := int(sim.Duration(start) / rec.bucket)
	b1 := int(sim.Duration(end-1) / rec.bucket)
	for len(ls.buckets) <= b1 {
		ls.buckets = append(ls.buckets, 0)
	}
	for b := b0; b <= b1; b++ {
		lo := sim.Time(sim.Duration(b) * rec.bucket)
		hi := lo.Add(rec.bucket)
		s, e := start, end
		if s < lo {
			s = lo
		}
		if e > hi {
			e = hi
		}
		ls.buckets[b] += e.Sub(s)
	}
}

// Inject implements Probe.
func (rec *Recorder) Inject(node int, t sim.Time, wait sim.Duration, bytes int) {
	rec.see(t)
	is, ok := rec.inject[node]
	if !ok {
		is = &injectState{}
		rec.inject[node] = is
	}
	is.msgs++
	is.bytes += int64(bytes)
	if wait > 0 {
		is.waited++
		is.wait += wait
		if wait > is.maxWait {
			is.maxWait = wait
		}
	}
}

// Fault implements Probe.
func (rec *Recorder) Fault(t sim.Time, kind, detail string) {
	rec.see(t)
	rec.faults = append(rec.faults, FaultEvent{T: t, Kind: kind, Detail: detail})
}

// RankFault implements Probe. The same actions reach the recorder,
// with their detail text, through Fault.
func (rec *Recorder) RankFault(rank int, t sim.Time, kind string, peer, bytes int) {}

// RankDone implements Probe.
func (rec *Recorder) RankDone(rank int, t sim.Time) {
	if rank < 0 {
		return
	}
	rec.see(t)
	rs := rec.rank(rank)
	rs.done = t
	rs.doneOK = true
}

// Segments returns one rank's timeline segments in time order (nil for
// an unobserved rank). The slice is the recorder's own; callers must
// not mutate it.
func (rec *Recorder) Segments(rank int) []Segment {
	if rs, ok := rec.ranks[rank]; ok {
		return rs.segs
	}
	return nil
}

// CollSpans returns one rank's collective spans in entry order.
func (rec *Recorder) CollSpans(rank int) []CollSpan {
	if rs, ok := rec.ranks[rank]; ok {
		return rs.colls
	}
	return nil
}

// Observed reports whether the recorder saw any probe event at all. A
// run that aborts before its first event (a kill at t=0, a config that
// spawns no ranks) leaves the recorder empty; exporters mark their
// output as intentionally empty in that case, so a blank artifact is
// distinguishable from a lost one.
func (rec *Recorder) Observed() bool {
	return len(rec.ranks) > 0 || len(rec.links) > 0 ||
		len(rec.inject) > 0 || len(rec.faults) > 0 || rec.lastT > 0
}
