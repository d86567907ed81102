package obs

import "bgpsim/internal/sim"

// Tee returns a probe that forwards every hook to a and then to b. A
// nil side is skipped: with one consumer Tee returns it directly (so
// type assertions on it still work), with none it returns nil.
func Tee(a, b Probe) Probe {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	return tee{a, b}
}

type tee struct{ a, b Probe }

func (p tee) ProcBlock(rank int, reason, detail string, t sim.Time) {
	p.a.ProcBlock(rank, reason, detail, t)
	p.b.ProcBlock(rank, reason, detail, t)
}

func (p tee) ProcUnblock(rank int, t sim.Time) {
	p.a.ProcUnblock(rank, t)
	p.b.ProcUnblock(rank, t)
}

func (p tee) Compute(rank int, start sim.Time, d, noise sim.Duration) {
	p.a.Compute(rank, start, d, noise)
	p.b.Compute(rank, start, d, noise)
}

func (p tee) Send(rank int, t sim.Time, peer, bytes, tag int, coll bool) {
	p.a.Send(rank, t, peer, bytes, tag, coll)
	p.b.Send(rank, t, peer, bytes, tag, coll)
}

func (p tee) RecvPost(rank int, t sim.Time, src, tag int) {
	p.a.RecvPost(rank, t, src, tag)
	p.b.RecvPost(rank, t, src, tag)
}

func (p tee) Match(rank int, t sim.Time, peer int, sendT sim.Time, bytes, tag int, coll bool) {
	p.a.Match(rank, t, peer, sendT, bytes, tag, coll)
	p.b.Match(rank, t, peer, sendT, bytes, tag, coll)
}

func (p tee) CollEnter(rank int, t sim.Time, key, algo string) {
	p.a.CollEnter(rank, t, key, algo)
	p.b.CollEnter(rank, t, key, algo)
}

func (p tee) CollExit(rank int, t sim.Time, key, algo string) {
	p.a.CollExit(rank, t, key, algo)
	p.b.CollExit(rank, t, key, algo)
}

func (p tee) LinkBusy(link int, start sim.Time, busy sim.Duration, bytes int) {
	p.a.LinkBusy(link, start, busy, bytes)
	p.b.LinkBusy(link, start, busy, bytes)
}

func (p tee) Inject(node int, t sim.Time, wait sim.Duration, bytes int) {
	p.a.Inject(node, t, wait, bytes)
	p.b.Inject(node, t, wait, bytes)
}

func (p tee) Fault(t sim.Time, kind, detail string) {
	p.a.Fault(t, kind, detail)
	p.b.Fault(t, kind, detail)
}

func (p tee) RankFault(rank int, t sim.Time, kind string, peer, bytes int) {
	p.a.RankFault(rank, t, kind, peer, bytes)
	p.b.RankFault(rank, t, kind, peer, bytes)
}

func (p tee) RankDone(rank int, t sim.Time) {
	p.a.RankDone(rank, t)
	p.b.RankDone(rank, t)
}
