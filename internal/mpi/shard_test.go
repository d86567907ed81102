package mpi

import (
	"fmt"
	"sort"
	"testing"

	"bgpsim/internal/fault"
	"bgpsim/internal/machine"
	"bgpsim/internal/network"
	"bgpsim/internal/obs"
	"bgpsim/internal/sim"
	"bgpsim/internal/topology"
	"bgpsim/internal/trace"
)

// logProbe records every probe call as a formatted line, so two runs
// can be compared call for call.
type logProbe struct{ lines []string }

func (p *logProbe) add(format string, args ...interface{}) {
	p.lines = append(p.lines, fmt.Sprintf(format, args...))
}
func (p *logProbe) ProcBlock(rank int, reason, detail string, t sim.Time) {
	p.add("block %d %s%s %d", rank, reason, detail, t)
}
func (p *logProbe) ProcUnblock(rank int, t sim.Time) { p.add("unblock %d %d", rank, t) }
func (p *logProbe) Compute(rank int, start sim.Time, d, noise sim.Duration) {
	p.add("compute %d %d %d %d", rank, start, d, noise)
}
func (p *logProbe) Send(rank int, t sim.Time, peer, bytes, tag int, coll bool) {
	p.add("send %d %d %d %d %d %v", rank, t, peer, bytes, tag, coll)
}
func (p *logProbe) RecvPost(rank int, t sim.Time, src, tag int) {
	p.add("recvpost %d %d %d %d", rank, t, src, tag)
}
func (p *logProbe) Match(rank int, t sim.Time, peer int, sendT sim.Time, bytes, tag int, coll bool) {
	p.add("match %d %d %d %d %d %d %v", rank, t, peer, sendT, bytes, tag, coll)
}
func (p *logProbe) CollEnter(rank int, t sim.Time, key, algo string) {
	p.add("collenter %d %d %s %s", rank, t, key, algo)
}
func (p *logProbe) CollExit(rank int, t sim.Time, key, algo string) {
	p.add("collexit %d %d %s %s", rank, t, key, algo)
}
func (p *logProbe) LinkBusy(link int, start sim.Time, busy sim.Duration, bytes int) {
	p.add("linkbusy %d %d %d %d", link, start, busy, bytes)
}
func (p *logProbe) Inject(node int, t sim.Time, wait sim.Duration, bytes int) {
	p.add("inject %d %d %d %d", node, t, wait, bytes)
}
func (p *logProbe) Fault(t sim.Time, kind, detail string) { p.add("fault %d %s %s", t, kind, detail) }
func (p *logProbe) RankFault(rank int, t sim.Time, kind string, peer, bytes int) {
	p.add("rankfault %d %d %s %d %d", rank, t, kind, peer, bytes)
}
func (p *logProbe) RankDone(rank int, t sim.Time) { p.add("done %d %d", rank, t) }

var _ obs.Probe = (*logProbe)(nil)

// snapshot is everything observable about one run, rendered to strings
// for exact comparison.
type snapshot struct {
	err    string
	result string
	ranks  string
	timers string
	net    string
	trace  []string
	probe  []string
	shards int
}

func statString(s network.Stats) string {
	keys := make([]string, 0, len(s.Collectives))
	for k := range s.Collectives {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := fmt.Sprintf("msgs=%d bytes=%d shm=%d tree=%d barrier=%d rec=%d rebuild=%d hwfb=%d rectime=%d orph=%d rst=%d rpl=%d rplb=%d rplt=%d rstt=%d",
		s.Messages, s.Bytes, s.ShmMsgs, s.TreeOps, s.BarrierOps,
		s.Recoveries, s.TreeRebuilds, s.HWFallbacks, s.RecoveryTime,
		s.Orphans, s.Restarts, s.Replays, s.ReplayBytes, s.ReplayTime, s.RestartTime)
	for _, k := range keys {
		c := s.Collectives[k]
		out += fmt.Sprintf(" %s{%d,%d,%d}", k, c.Ops, c.Messages, c.Bytes)
	}
	return out
}

// takeSnapshot runs cfg with the given shard count, a fresh trace
// buffer, and a fresh logProbe, and captures every observable output.
func takeSnapshot(t *testing.T, cfg Config, shards int, prog func(*Rank)) snapshot {
	t.Helper()
	s, _ := takePaused(t, cfg, shards, prog, nil, nil)
	return s
}

// takePaused is takeSnapshot run stepwise when pauses is non-nil:
// Begin, StepTo at each pause (calling check, when non-nil, after each
// one), then Finish. It also returns the run's Now and Events after
// every pause.
func takePaused(t *testing.T, cfg Config, shards int, prog func(*Rank), pauses []sim.Time, check func(*Running)) (snapshot, []string) {
	t.Helper()
	pb := &logProbe{}
	tb := trace.NewBuffer(0)
	cfg.Shards = shards
	cfg.Probe = pb
	cfg.Trace = tb
	var s snapshot
	var marks []string
	var res *Result
	var err error
	if pauses == nil {
		res, err = Execute(cfg, prog)
	} else {
		run, berr := Begin(cfg, prog)
		if berr != nil {
			t.Fatalf("Begin: %v", berr)
		}
		for _, p := range pauses {
			err := run.StepTo(p)
			if run.Now() >= p && !run.Done() {
				t.Errorf("StepTo(%d) paused at %d: fired an event at or past the pause", p, run.Now())
			}
			marks = append(marks, fmt.Sprintf("StepTo(%d): now=%d events=%d done=%v err=%v",
				p, run.Now(), run.Events(), run.Done(), err))
			if check != nil {
				check(run)
			}
		}
		res, err = run.Finish()
	}
	if err != nil {
		s.err = err.Error()
	}
	s.probe = pb.lines
	for _, e := range tb.Events() {
		s.trace = append(s.trace, fmt.Sprintf("%d %d %v %d %d %d %s %s",
			e.T, e.Rank, e.Kind, e.Peer, e.Bytes, e.Tag, e.Label, e.Algo))
	}
	if res == nil {
		return s, marks
	}
	s.shards = res.Shards
	s.result = fmt.Sprintf("elapsed=%d events=%d dropped=%d lost=%v peak=%d",
		res.Elapsed, res.Events, res.Dropped, res.Lost, res.PeakRankState)
	s.ranks = fmt.Sprintf("%v", res.RankElapsed)
	names := make([]string, 0, len(res.Timers))
	for n := range res.Timers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s.timers += fmt.Sprintf("%s=%v;", n, res.Timers[n])
	}
	s.net = statString(res.Net)
	return s, marks
}

func diffLines(t *testing.T, what string, base, got []string) {
	t.Helper()
	n := len(base)
	if len(got) < n {
		n = len(got)
	}
	for i := 0; i < n; i++ {
		if base[i] != got[i] {
			t.Errorf("%s diverges at line %d:\n  base: %s\n  got:  %s", what, i, base[i], got[i])
			return
		}
	}
	if len(base) != len(got) {
		t.Errorf("%s length: base %d lines, got %d lines", what, len(base), len(got))
	}
}

// checkEquiv asserts every sharded run is observably identical —
// including the full trace and probe streams — to the shards=1
// baseline, and that the serial kernel (Shards unset) agrees on all
// run values (result, per-rank times, timers, traffic stats). The
// serial kernel's streams legitimately interleave same-timestamp
// records of different ranks in creation order rather than canonical
// order, so stream equality is only required among sharded runs.
func checkEquiv(t *testing.T, cfg Config, prog func(*Rank), shards ...int) {
	t.Helper()
	want := takeSnapshot(t, cfg, 1, prog)
	if want.err == "" && want.shards != 1 {
		t.Fatalf("shards=1 run reports Shards=%d, want the sharded path", want.shards)
	}
	checkSerialValues(t, cfg, prog, want)
	checkEquivSharded(t, cfg, prog, want, shards...)
}

// checkEquivSharded is checkEquiv without the serial-vs-sharded value
// comparison, for workloads whose same-timestamp event ties contend
// for shared state (the node shm channel): the canonical order
// legitimately resolves such a tie differently than the serial
// kernel's creation order. Sharded runs still agree with each other
// exactly.
func checkEquivSharded(t *testing.T, cfg Config, prog func(*Rank), want snapshot, shards ...int) {
	t.Helper()
	for _, n := range shards {
		checkSameRun(t, fmt.Sprintf("shards=%d", n), want, takeSnapshot(t, cfg, n, prog))
	}
}

// checkSameRun asserts two snapshots are identical, streams included.
func checkSameRun(t *testing.T, what string, want, got snapshot) {
	t.Helper()
	if got.err != want.err {
		t.Errorf("%s: err = %q, want %q", what, got.err, want.err)
		return
	}
	if got.result != want.result {
		t.Errorf("%s: result = %q, want %q", what, got.result, want.result)
	}
	if got.ranks != want.ranks {
		t.Errorf("%s: rank elapsed mismatch\n got %s\nwant %s", what, got.ranks, want.ranks)
	}
	if got.timers != want.timers {
		t.Errorf("%s: timers = %q, want %q", what, got.timers, want.timers)
	}
	if got.net != want.net {
		t.Errorf("%s: net stats\n got %s\nwant %s", what, got.net, want.net)
	}
	diffLines(t, what+" trace", want.trace, got.trace)
	diffLines(t, what+" probe", want.probe, got.probe)
}

// checkSerialValues compares the serial kernel's run values against
// the shards=1 baseline.
func checkSerialValues(t *testing.T, cfg Config, prog func(*Rank), want snapshot) {
	t.Helper()
	ser := takeSnapshot(t, cfg, 0, prog)
	if ser.err == "" && ser.shards != 1 {
		t.Fatalf("serial run reports Shards=%d, want 1", ser.shards)
	}
	if ser.err != want.err {
		t.Errorf("serial err = %q, sharded %q", ser.err, want.err)
		return
	}
	if ser.result != want.result {
		t.Errorf("serial result = %q, sharded %q", ser.result, want.result)
	}
	if ser.ranks != want.ranks {
		t.Errorf("serial rank elapsed\n serial  %s\n sharded %s", ser.ranks, want.ranks)
	}
	if ser.timers != want.timers {
		t.Errorf("serial timers = %q, sharded %q", ser.timers, want.timers)
	}
	if ser.net != want.net {
		t.Errorf("serial net stats\n serial  %s\n sharded %s", ser.net, want.net)
	}
}

func analyticConfig(nodes int, mode machine.Mode) Config {
	return Config{
		Machine:  machine.Get(machine.BGP),
		Nodes:    nodes,
		Mode:     mode,
		Fidelity: network.Analytic,
	}
}

func TestShardEquivHalo(t *testing.T) {
	cfg := analyticConfig(16, machine.VN) // 64 ranks
	checkEquiv(t, cfg, func(r *Rank) {
		n := r.Size()
		for it := 0; it < 4; it++ {
			r.Compute(2e5, 1e4, machine.ClassStencil)
			right := (r.ID() + 1) % n
			left := (r.ID() + n - 1) % n
			r.Sendrecv(right, 4096, 1, left, 1)
			r.Sendrecv(left, 4096, 2, right, 2)
		}
	}, 2, 3, 4, 8)
}

func TestShardEquivCollectives(t *testing.T) {
	cfg := analyticConfig(16, machine.DUAL) // 32 ranks
	checkEquiv(t, cfg, func(r *Rank) {
		w := r.World()
		r.TimerStart("main")
		for it := 0; it < 3; it++ {
			r.Compute(1e5, 0, machine.ClassDGEMM)
			w.Allreduce(r, 64, true)
			w.Bcast(r, 0, 1<<14)
			w.Barrier(r)
		}
		w.Alltoall(r, 256)
		r.TimerStop("main")
	}, 2, 4, 8)
}

func TestShardEquivAnalyticCollectives(t *testing.T) {
	cfg := analyticConfig(32, machine.SMP)
	cfg.AnalyticCollectives = true
	checkEquiv(t, cfg, func(r *Rank) {
		w := r.World()
		for it := 0; it < 3; it++ {
			r.Compute(5e4, 0, machine.ClassDGEMM)
			w.Allreduce(r, 1024, false)
			w.Allgather(r, 128)
		}
	}, 2, 4)
}

func TestShardEquivSplit(t *testing.T) {
	cfg := analyticConfig(16, machine.VN)
	prog := func(r *Rank) {
		w := r.World()
		sub := w.Split(r, r.ID()%4, r.ID())
		for it := 0; it < 2; it++ {
			sub.Allreduce(r, 512, false)
			r.Compute(1e5, 0, machine.ClassDGEMM)
		}
		sub.Barrier(r)
		w.Barrier(r)
	}
	// The sub-communicator allreduces drive same-node partner pairs into
	// the shm channel at tied timestamps, so the serial kernel's
	// creation-order tie-break and the canonical order resolve the
	// contention differently (the final elapsed time happens to agree;
	// the wake-event count does not). Sharded counts must still agree
	// with each other byte for byte.
	want := takeSnapshot(t, cfg, 1, prog)
	checkEquivSharded(t, cfg, prog, want, 2, 4, 8)
}

func TestShardEquivRendezvous(t *testing.T) {
	cfg := analyticConfig(16, machine.SMP)
	checkEquiv(t, cfg, func(r *Rank) {
		n := r.Size()
		// Large messages force the rendezvous path; partner ranks sit in
		// different shards at every tested shard count.
		partner := (r.ID() + n/2) % n
		if r.ID() < n/2 {
			r.Send(partner, 1<<21, 9)
			r.Recv(partner, 10)
		} else {
			r.Recv(partner, 9)
			r.Send(partner, 1<<21, 10)
		}
	}, 2, 4, 8)
}

func TestShardEquivAnySource(t *testing.T) {
	cfg := analyticConfig(16, machine.SMP)
	checkEquiv(t, cfg, func(r *Rank) {
		if r.ID() == 0 {
			for i := 1; i < r.Size(); i++ {
				r.Recv(AnySource, AnyTag)
			}
			for i := 1; i < r.Size(); i++ {
				r.Send(i, 64, 2)
			}
		} else {
			r.Compute(float64(r.ID())*1e4, 0, machine.ClassDGEMM)
			r.Send(0, 256, 1)
			r.Recv(0, 2)
		}
	}, 2, 4)
}

func TestShardEquivRecovery(t *testing.T) {
	plan := fault.NewPlan(7)
	plan.EnableRecovery()
	plan.KillNode(5, sim.Time(sim.Seconds(0.0004)))
	plan.KillNode(11, sim.Time(sim.Seconds(0.0009)))
	cfg := analyticConfig(16, machine.DUAL)
	cfg.Faults = plan
	checkEquiv(t, cfg, func(r *Rank) {
		w := r.World()
		for it := 0; it < 6; it++ {
			r.Compute(3e5, 0, machine.ClassDGEMM)
			w.Allreduce(r, 256, false)
		}
	}, 2, 4, 8)
}

func TestShardEquivFailStop(t *testing.T) {
	plan := fault.NewPlan(3)
	plan.KillNode(9, sim.Time(sim.Seconds(0.0005)))
	cfg := analyticConfig(16, machine.SMP)
	cfg.Faults = plan
	checkEquiv(t, cfg, func(r *Rank) {
		w := r.World()
		for it := 0; it < 20; it++ {
			r.Compute(1e5, 0, machine.ClassDGEMM)
			w.Allreduce(r, 128, false)
		}
	}, 2, 4)
}

func TestShardEquivDeadlock(t *testing.T) {
	cfg := analyticConfig(8, machine.SMP)
	checkEquiv(t, cfg, func(r *Rank) {
		if r.ID() == 3 {
			r.Recv(4, 99) // never sent
		}
	}, 2, 4)
}

func TestShardEquivEventLimit(t *testing.T) {
	cfg := analyticConfig(8, machine.SMP)
	cfg.EventLimit = 200
	// The limit error's timestamp legitimately differs (the serial
	// kernel stops mid-window), so compare occurrence, not text.
	pb1 := takeSnapshot(t, cfg, 1, func(r *Rank) {
		for it := 0; it < 100; it++ {
			r.World().Allreduce(r, 64, false)
		}
	})
	pb4 := takeSnapshot(t, cfg, 4, func(r *Rank) {
		for it := 0; it < 100; it++ {
			r.World().Allreduce(r, 64, false)
		}
	})
	if pb1.err == "" || pb4.err == "" {
		t.Fatalf("event limit not hit: serial %q, sharded %q", pb1.err, pb4.err)
	}
}

// TestShardFallback checks ineligible configurations run serial and
// report it.
func TestShardFallback(t *testing.T) {
	cfg := bgpConfig(8, machine.SMP) // Contention fidelity
	cfg.Shards = 4
	res := mustRun(t, cfg, func(r *Rank) {
		r.World().Barrier(r)
	})
	if res.Shards != 1 {
		t.Errorf("contention run reports Shards=%d, want 1", res.Shards)
	}
	lcfg := analyticConfig(8, machine.SMP)
	lcfg.Shards = 4
	plan := fault.NewPlan(1)
	plan.FailLink(topology.Link{}, 0)
	lcfg.Faults = plan
	res = mustRun(t, lcfg, func(r *Rank) { r.World().Barrier(r) })
	if res.Shards != 1 {
		t.Errorf("link-fault run reports Shards=%d, want serial fallback 1", res.Shards)
	}
}
