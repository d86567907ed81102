package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"bgpsim/internal/sim"
)

// us is a convenient microsecond literal for synthetic streams.
const usT = sim.Microsecond

// feedTwoRanks drives a recorder with a minimal two-rank exchange:
// rank 1 computes 50us then sends; rank 0 blocks at 10us and is
// released by the match at 60us, then both finish at 80us.
func feedTwoRanks(rec *Recorder) {
	rec.Compute(1, 0, 50*usT, 0)
	rec.ProcBlock(0, "MPI_Recv", "src 1", sim.Time(10*usT))
	rec.Send(1, sim.Time(50*usT), 0, 1024, 7, false)
	rec.Match(0, sim.Time(60*usT), 1, sim.Time(50*usT), 1024, 0, false)
	rec.ProcUnblock(0, sim.Time(60*usT))
	rec.Compute(0, sim.Time(60*usT), 20*usT, 0)
	rec.Compute(1, sim.Time(50*usT), 30*usT, 0)
	rec.RankDone(0, sim.Time(80*usT))
	rec.RankDone(1, sim.Time(80*usT))
}

func TestRecorderSegmentsAndClassification(t *testing.T) {
	rec := NewRecorder()
	feedTwoRanks(rec)

	segs := rec.Segments(0)
	if len(segs) != 2 {
		t.Fatalf("rank 0: %d segments, want 2", len(segs))
	}
	w := segs[0]
	if w.Kind != SegP2PWait || w.Start != sim.Time(10*usT) || w.End != sim.Time(60*usT) {
		t.Errorf("wait segment: %+v", w)
	}
	if w.Peer != 1 || w.SendT != sim.Time(50*usT) {
		t.Errorf("release attribution: peer=%d sendT=%d, want 1/%d", w.Peer, w.SendT, 50*usT)
	}
	if segs[1].Kind != SegCompute {
		t.Errorf("second segment kind = %v, want compute", segs[1].Kind)
	}

	// A block with the "collective" reason, or any block inside
	// CollEnter..CollExit, classifies as collective wait.
	rec2 := NewRecorder()
	rec2.ProcBlock(0, "collective", "bar:1", sim.Time(0))
	rec2.ProcUnblock(0, sim.Time(5*usT))
	rec2.CollEnter(1, sim.Time(0), "ar:1", "allreduce/ring")
	rec2.ProcBlock(1, "MPI_Recv", "", sim.Time(1*usT))
	rec2.ProcUnblock(1, sim.Time(4*usT))
	rec2.CollExit(1, sim.Time(5*usT), "ar:1", "allreduce/ring")
	if got := rec2.Segments(0)[0]; got.Kind != SegCollWait || got.Key != "bar:1" {
		t.Errorf("gate wait: %+v", got)
	}
	if got := rec2.Segments(1)[0]; got.Kind != SegCollWait {
		t.Errorf("in-collective p2p wait classified as %v, want coll-wait", got.Kind)
	}
	spans := rec2.CollSpans(1)
	if len(spans) != 1 || spans[0].Exit != sim.Time(5*usT) || spans[0].Algo != "allreduce/ring" {
		t.Errorf("coll spans: %+v", spans)
	}
}

func TestProfileTotalsAndNoise(t *testing.T) {
	rec := NewRecorder()
	feedTwoRanks(rec)
	rec.Inject(3, sim.Time(55*usT), 2*usT, 1024)
	rec.Inject(3, sim.Time(56*usT), 0, 512)

	p := rec.Profile()
	if len(p.Ranks) != 2 {
		t.Fatalf("%d rank profiles, want 2", len(p.Ranks))
	}
	r0, r1 := p.Ranks[0], p.Ranks[1]
	if r0.Rank != 0 || r1.Rank != 1 {
		t.Fatalf("rank order: %d, %d", r0.Rank, r1.Rank)
	}
	if r0.Compute != 20*usT || r0.P2PWait != 50*usT || r0.Total != 80*usT {
		t.Errorf("rank 0 profile: %+v", r0)
	}
	if r1.Compute != 80*usT || r1.Sends != 1 || r1.SentBytes != 1024 {
		t.Errorf("rank 1 profile: %+v", r1)
	}
	if r0.Other != 80*usT-20*usT-50*usT {
		t.Errorf("rank 0 other = %v", r0.Other)
	}
	if p.InjectMsgs != 2 || p.InjectQueued != 1 || p.InjectMaxWait != 2*usT {
		t.Errorf("injection telemetry: %+v", p)
	}
	if p.Elapsed() != 80*usT {
		t.Errorf("elapsed = %v", p.Elapsed())
	}

	// Noise is split out of the compute bucket.
	rec2 := NewRecorder()
	rec2.Compute(0, 0, 10*usT, 3*usT)
	rec2.RankDone(0, sim.Time(10*usT))
	rp := rec2.Profile().Ranks[0]
	if rp.Compute != 7*usT || rp.Noise != 3*usT {
		t.Errorf("noise split: compute=%v noise=%v", rp.Compute, rp.Noise)
	}
}

func TestSegmentCapCountsDrops(t *testing.T) {
	rec := NewRecorderWith(0, 3)
	for i := 0; i < 10; i++ {
		rec.Compute(0, sim.Time(i*10)*sim.Time(usT), 5*usT, 0)
	}
	rec.RankDone(0, sim.Time(100*usT))
	if got := len(rec.Segments(0)); got != 3 {
		t.Errorf("%d segments retained, want 3", got)
	}
	if rec.DroppedSegments() != 7 {
		t.Errorf("dropped = %d, want 7", rec.DroppedSegments())
	}
	// Totals stay exact despite the drops.
	if p := rec.Profile(); p.Ranks[0].Compute != 50*usT || p.DroppedSegments != 7 {
		t.Errorf("profile after drops: %+v", p.Ranks[0])
	}
}

func TestCriticalPathWalksAcrossRanks(t *testing.T) {
	rec := NewRecorder()
	feedTwoRanks(rec)
	cp := rec.CriticalPath()
	// Both ranks finish at 80us; the tie keeps the lowest rank.
	if cp.EndRank != 0 || cp.Total != 80*usT {
		t.Fatalf("end=%d total=%v", cp.EndRank, cp.Total)
	}
	if cp.Hops != 1 {
		t.Errorf("hops = %d, want 1 (wait released by rank 1)", cp.Hops)
	}
	// Buckets tile the whole path: no overlap, no gap.
	if sum := cp.Compute + cp.P2PWait + cp.CollWait + cp.Other; sum != cp.Total {
		t.Errorf("buckets sum to %v, want %v", sum, cp.Total)
	}
	// The chain: rank 0's tail compute (20us) + transfer since the send
	// (10us) + rank 1's compute up to the send (50us).
	if cp.Compute != 70*usT || cp.P2PWait != 10*usT {
		t.Errorf("compute=%v p2p=%v, want 70us/10us", cp.Compute, cp.P2PWait)
	}
	if len(cp.ByRank) != 2 || cp.ByRank[0].Rank != 1 || cp.ByRank[0].Time != 50*usT {
		t.Errorf("rank shares: %+v", cp.ByRank)
	}
	var sum sim.Duration
	for _, s := range cp.ByRank {
		sum += s.Time
	}
	if sum != cp.Total {
		t.Errorf("rank shares sum to %v, want %v", sum, cp.Total)
	}
}

func TestCriticalPathCollectiveHop(t *testing.T) {
	rec := NewRecorder()
	// Rank 1 computes 40us and enters the collective last; rank 0
	// enters at 5us and gates until 45us.
	rec.CollEnter(0, sim.Time(5*usT), "bar:1", "barrier/tree")
	rec.ProcBlock(0, "collective", "bar:1", sim.Time(5*usT))
	rec.Compute(1, 0, 40*usT, 0)
	rec.CollEnter(1, sim.Time(40*usT), "bar:1", "barrier/tree")
	rec.ProcUnblock(0, sim.Time(45*usT))
	rec.CollExit(0, sim.Time(45*usT), "bar:1", "barrier/tree")
	rec.CollExit(1, sim.Time(45*usT), "bar:1", "barrier/tree")
	rec.RankDone(0, sim.Time(46*usT))
	rec.RankDone(1, sim.Time(45*usT))

	cp := rec.CriticalPath()
	if cp.EndRank != 0 || cp.Hops != 1 {
		t.Fatalf("end=%d hops=%d, want rank 0 with one hop to the last enterer", cp.EndRank, cp.Hops)
	}
	// 40us of rank 1 compute + 5us of gate sync + 1us tail.
	if cp.Compute != 40*usT || cp.CollWait != 5*usT {
		t.Errorf("compute=%v collWait=%v", cp.Compute, cp.CollWait)
	}
	if cp.ByRank[0].Rank != 1 || cp.ByRank[0].Time != 40*usT {
		t.Errorf("top share: %+v", cp.ByRank[0])
	}
}

func TestChromeTraceValidAndDeterministic(t *testing.T) {
	feed := func() *Recorder {
		rec := NewRecorder()
		feedTwoRanks(rec)
		rec.CollEnter(0, sim.Time(70*usT), `k"ey`, "allreduce/ring")
		rec.CollExit(0, sim.Time(75*usT), `k"ey`, "allreduce/ring")
		rec.Fault(sim.Time(30*usT), "link-down", "n3.x+ until 1ms")
		return rec
	}
	var a, b bytes.Buffer
	if err := feed().WriteChromeTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := feed().WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("identical recordings serialized differently")
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	kinds := map[string]int{}
	for _, e := range doc.TraceEvents {
		kinds[e["ph"].(string)]++
	}
	if kinds["M"] != 2 || kinds["i"] != 1 || kinds["X"] < 4 {
		t.Errorf("event mix: %v", kinds)
	}
}

func TestLinkTelemetryAndCSV(t *testing.T) {
	rec := NewRecorderWith(10*usT, 0)
	// One reservation spanning two buckets, one inside a single bucket.
	rec.LinkBusy(7, sim.Time(5*usT), 10*usT, 4096)
	rec.LinkBusy(3, sim.Time(12*usT), 2*usT, 512)
	if rec.LinkCount() != 2 {
		t.Fatalf("link count = %d", rec.LinkCount())
	}
	top := rec.BusiestLinks(1)
	if len(top) != 1 || top[0].Link != 7 || top[0].Busy != 10*usT {
		t.Errorf("busiest: %+v", top)
	}
	var b strings.Builder
	if err := rec.WriteLinkCSV(&b, TorusLinkName); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("CSV lines: %d\n%s", len(lines), out)
	}
	// Link 3 = node 0, dim 1, positive; link 7 = node 1, dim 0, positive.
	if !strings.HasPrefix(lines[2], "n0.y+,") || !strings.HasPrefix(lines[3], "n1.x+,") {
		t.Errorf("row labels:\n%s", out)
	}
	// Link 7's 10us reservation splits 5us/5us over buckets 0 and 1.
	if !strings.Contains(lines[3], ",0.5000,0.5000") {
		t.Errorf("bucket split: %s", lines[3])
	}
}

func TestTorusLinkName(t *testing.T) {
	cases := map[int]string{
		0:   "n0.x-",
		1:   "n0.x+",
		4:   "n0.z-",
		11:  "n1.z+",
		252: "n42.x-",
	}
	for idx, want := range cases {
		if got := TorusLinkName(idx); got != want {
			t.Errorf("TorusLinkName(%d) = %q, want %q", idx, got, want)
		}
	}
}

// TestEmptyRecorderExports: a recorder that observed nothing still
// exports well-formed artifacts that say so explicitly — a run that
// produced no events must be distinguishable from a lost artifact.
func TestEmptyRecorderExports(t *testing.T) {
	rec := NewRecorder()
	if rec.Observed() {
		t.Error("fresh recorder claims observations")
	}
	var trace bytes.Buffer
	if err := rec.WriteChromeTrace(&trace); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc struct {
		Events []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace.Bytes(), &doc); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v\n%s", err, trace.Bytes())
	}
	found := false
	for _, ev := range doc.Events {
		if ev["name"] == "no events recorded" {
			found = true
		}
	}
	if !found {
		t.Errorf("empty trace lacks the no-events marker: %s", trace.Bytes())
	}

	var csv bytes.Buffer
	if err := rec.WriteLinkCSV(&csv, nil); err != nil {
		t.Fatalf("WriteLinkCSV: %v", err)
	}
	if !strings.Contains(csv.String(), "# no link traffic recorded") {
		t.Errorf("empty link CSV lacks the no-traffic marker:\n%s", csv.String())
	}
	if !strings.Contains(csv.String(), "link,busy_us,bytes,msgs") {
		t.Errorf("empty link CSV lost its header:\n%s", csv.String())
	}

	// Any observation flips Observed, and the markers disappear.
	rec.Compute(0, 0, 10*usT, 0)
	rec.RankDone(0, sim.Time(10*usT))
	if !rec.Observed() {
		t.Error("recorder with a rank segment claims no observations")
	}
	trace.Reset()
	if err := rec.WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(trace.String(), "no events recorded") {
		t.Error("non-empty trace still carries the empty marker")
	}
}
