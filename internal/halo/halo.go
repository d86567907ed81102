// Package halo implements the Wallcraft HALO benchmark the paper uses
// in Figure 2: a 2-D virtual process grid exchanging a 1-2 row/column
// halo (N words north/west, 2N words south/east) under different MPI
// protocols, process mappings, and grid shapes.
package halo

import (
	"fmt"

	"bgpsim/internal/core"
	"bgpsim/internal/fault"
	"bgpsim/internal/machine"
	"bgpsim/internal/mpi"
	"bgpsim/internal/network"
	"bgpsim/internal/obs"
	"bgpsim/internal/sim"
	"bgpsim/internal/topology"
	"bgpsim/internal/trace"
)

// Protocol selects the messaging implementation of the exchange.
type Protocol int

// The protocols compared in Figure 2(a)/(b).
const (
	// IsendIrecv posts all receives and sends, then waits on all.
	IsendIrecv Protocol = iota
	// SendRecv uses two MPI_SENDRECV calls per phase.
	SendRecv
	// IrecvSend posts receives first, then blocking sends.
	IrecvSend
	// Persistent uses MPI_Send_init/Recv_init channels set up once.
	Persistent
)

// String names the protocol as the paper does.
func (p Protocol) String() string {
	switch p {
	case IsendIrecv:
		return "MPI_ISEND/IRECV"
	case SendRecv:
		return "MPI_SENDRECV"
	case IrecvSend:
		return "MPI_IRECV/SEND"
	case Persistent:
		return "MPI persistent"
	}
	return fmt.Sprintf("Protocol(%d)", int(p))
}

// Options configures one HALO run.
type Options struct {
	Machine    machine.ID
	Mode       machine.Mode
	GridX      int // virtual process grid columns
	GridY      int // virtual process grid rows
	Mapping    topology.Mapping
	Protocol   Protocol
	Words      int // halo size: N 32-bit words
	Iterations int // exchange repetitions (default 10)

	// Coll optionally forces collective algorithms (the benchmark's
	// own barriers and any collective protocol variants); see
	// mpi.ParseCollSpec.
	Coll map[string]string

	// Faults optionally injects a deterministic fault plan
	// (internal/fault): link degradations and failures perturb the
	// exchange, node kills abort the run with *mpi.RankFailure — or,
	// with recovery enabled, drop the dead ranks from the benchmark's
	// collectives.
	Faults *fault.Plan

	// Trace, when non-nil, records message and collective events.
	Trace *trace.Buffer

	// Probe, when non-nil, streams observability events (usually into
	// an *obs.Recorder) for timelines, profiles and link telemetry.
	Probe obs.Probe

	// Analytic runs the exchange under the analytic network model
	// instead of the default link-contention model. The analytic model
	// loses the congestion effects the benchmark exists to show, but
	// it is the only fidelity the sharded kernel accepts, so it is the
	// mode for full-machine-scale capacity runs.
	Analytic bool

	// Shards, when >= 1, partitions the ranks into that many
	// torus-contiguous domains simulated by the conservative parallel
	// kernel (see mpi.Config.Shards). Requires Analytic; otherwise the
	// run falls back to the serial kernel.
	Shards int
}

// wordBytes is the benchmark's 32-bit word.
const wordBytes = 4

// Run executes the benchmark and returns the mean time per complete
// halo exchange.
func Run(o Options) (sim.Duration, error) {
	d, _, err := RunResult(o)
	return d, err
}

// RunResult is Run returning the full simulation result as well, for
// callers that inspect traffic counters, dropped trace events, or the
// attached observability probe: Start followed by Finish.
func RunResult(o Options) (sim.Duration, *mpi.Result, error) {
	s, err := Start(o)
	if err != nil {
		return 0, nil, err
	}
	return s.Finish()
}

// Session is a HALO run in stepwise execution: the embedded
// mpi.Running advances the exchange to chosen points in virtual time,
// and Finish completes it, producing byte-for-byte the result a
// straight RunResult call returns.
type Session struct {
	*mpi.Running
	total *sim.Duration
}

// Start begins a stepwise HALO run without firing any event.
func Start(o Options) (*Session, error) {
	cfg, program, total, err := build(o)
	if err != nil {
		return nil, err
	}
	run, err := mpi.Begin(cfg, program)
	if err != nil {
		return nil, err
	}
	return &Session{Running: run, total: total}, nil
}

// Finish runs the exchange to completion and returns the mean time per
// exchange plus the full result.
func (s *Session) Finish() (sim.Duration, *mpi.Result, error) {
	res, err := s.Running.Finish()
	if err != nil {
		return 0, nil, err
	}
	return *s.total, res, nil
}

// build constructs the run's config and rank program. The returned
// duration pointer receives rank 0's mean time per exchange when the
// program completes.
func build(o Options) (mpi.Config, func(*mpi.Rank), *sim.Duration, error) {
	if o.GridX <= 0 || o.GridY <= 0 {
		return mpi.Config{}, nil, nil, fmt.Errorf("halo: bad grid %dx%d", o.GridX, o.GridY)
	}
	iters := o.Iterations
	if iters <= 0 {
		iters = 10
	}
	ranks := o.GridX * o.GridY
	cfg := core.PartitionConfig(o.Machine, o.Mode, ranks)
	cfg.Mapping = o.Mapping
	cfg.Fidelity = network.Contention
	if o.Analytic {
		cfg.Fidelity = network.Analytic
	}
	cfg.Shards = o.Shards
	cfg.Coll = o.Coll
	cfg.Faults = o.Faults
	cfg.Trace = o.Trace
	cfg.Probe = o.Probe

	pl := &plan{nx: o.GridX, ny: o.GridY, n: o.Words * wordBytes, iters: iters, total: new(sim.Duration)}
	switch o.Protocol {
	case IsendIrecv:
		return cfg, pl.exchange(isendIrecvPhase), pl.total, nil
	case SendRecv:
		return cfg, pl.exchange(sendRecvPhase), pl.total, nil
	case IrecvSend:
		return cfg, pl.exchange(irecvSendPhase), pl.total, nil
	case Persistent:
		return cfg, pl.persistent(), pl.total, nil
	}
	return mpi.Config{}, nil, nil, fmt.Errorf("halo: unknown protocol %d", o.Protocol)
}

// plan is one run's read-only rank program: the process grid, the halo
// size and the iteration count. Every rank reads it; none writes it
// (rank 0 writes the result through total). The rank bodies and phases
// keep their frames small: they sit above every MPI call on each rank's
// coroutine stack, which must fit the rank stack budget (see
// docs/PERFORMANCE.md).
type plan struct {
	nx, ny int
	n      int // small halo in bytes (N words); the large halo is 2n
	iters  int
	total  *sim.Duration // receives rank 0's mean time per exchange
}

// neighbour returns the rank at grid offset (dx, dy) from rank me, on
// the periodic grid.
func (pl *plan) neighbour(me, dx, dy int) int {
	x := (me%pl.nx + dx + pl.nx) % pl.nx
	y := (me/pl.nx + dy + pl.ny) % pl.ny
	return y*pl.nx + x
}

// pair returns the less and more neighbours of rank me in phase d:
// north and south in phase 0, west and east in phase 1.
func (pl *plan) pair(me, d int) (less, more int) {
	if d == 0 {
		return pl.neighbour(me, 0, -1), pl.neighbour(me, 0, 1)
	}
	return pl.neighbour(me, -1, 0), pl.neighbour(me, 1, 0)
}

// exchange returns the rank body of the non-persistent protocols: a
// barrier, then per iteration a north/south and a west/east phase. The
// body is a closure rather than a method value, which would add a
// wrapper frame under every rank's program.
func (pl *plan) exchange(phase func(r *mpi.Rank, less, more, n, tag int)) func(*mpi.Rank) {
	return func(r *mpi.Rank) {
		me := r.ID()
		r.World().Barrier(r)
		t0 := r.Now()
		for it := 0; it < pl.iters; it++ {
			for d := 0; d < 2; d++ {
				less, more := pl.pair(me, d)
				phase(r, less, more, pl.n, 10+4*it+2*d)
			}
		}
		pl.record(r, t0)
	}
}

// A phase function runs one exchange: it sends n bytes to the less
// neighbour and 2n to the more neighbour, receives the mirror amounts,
// and completes before it returns (the benchmark's two-phase
// structure).

// isendIrecvPhase posts both receives and both sends, then waits on
// all four.
func isendIrecvPhase(r *mpi.Rank, less, more, n, tag int) {
	r1 := r.Irecv(more, tag)
	r2 := r.Irecv(less, tag+1)
	s1 := r.Isend(less, n, tag)
	s2 := r.Isend(more, 2*n, tag+1)
	r.Wait(r1)
	r.Wait(r2)
	r.Wait(s1)
	r.Wait(s2)
}

// sendRecvPhase uses two MPI_SENDRECV calls.
func sendRecvPhase(r *mpi.Rank, less, more, n, tag int) {
	r.Sendrecv(less, n, tag, more, tag)
	r.Sendrecv(more, 2*n, tag+1, less, tag+1)
}

// irecvSendPhase posts the receives first, then sends blocking.
func irecvSendPhase(r *mpi.Rank, less, more, n, tag int) {
	r1 := r.Irecv(more, tag)
	r2 := r.Irecv(less, tag+1)
	r.Send(less, n, tag)
	r.Send(more, 2*n, tag+1)
	r.Wait(r1)
	r.Wait(r2)
}

// record stores rank 0's mean time per exchange.
func (pl *plan) record(r *mpi.Rank, t0 sim.Time) {
	if r.ID() == 0 {
		*pl.total = r.Now().Sub(t0) / sim.Duration(pl.iters)
	}
}

// persistent returns the rank body of the persistent protocol:
// channels are established once, before timing begins.
func (pl *plan) persistent() func(*mpi.Rank) {
	return func(r *mpi.Rank) {
		ch := pl.channels(r)
		r.World().Barrier(r)
		t0 := r.Now()
		for it := 0; it < pl.iters; it++ {
			mpi.StartAll(ch[:4]...)
			mpi.WaitAllPersistent(ch[:4]...)
			mpi.StartAll(ch[4:]...)
			mpi.WaitAllPersistent(ch[4:]...)
		}
		pl.record(r, t0)
	}
}

// channels sets up a rank's persistent channels: the north/south
// phase's four, then the west/east phase's, each phase receiving from
// both neighbours and sending small to less and large to more.
func (pl *plan) channels(r *mpi.Rank) *[8]*mpi.PersistentRequest {
	ch := new([8]*mpi.PersistentRequest)
	me := r.ID()
	for d := 0; d < 2; d++ {
		less, more := pl.pair(me, d)
		tag := 1 + 2*d
		ch[4*d] = r.RecvInit(more, tag)
		ch[4*d+1] = r.RecvInit(less, tag+1)
		ch[4*d+2] = r.SendInit(less, pl.n, tag)
		ch[4*d+3] = r.SendInit(more, 2*pl.n, tag+1)
	}
	return ch
}

// BestMapping runs the benchmark under each candidate mapping and
// returns the fastest one with its time.
func BestMapping(o Options, candidates []topology.Mapping) (topology.Mapping, sim.Duration, error) {
	var best topology.Mapping
	var bestT sim.Duration
	for _, m := range candidates {
		o.Mapping = m
		t, err := Run(o)
		if err != nil {
			return "", 0, err
		}
		if best == "" || t < bestT {
			best, bestT = m, t
		}
	}
	return best, bestT, nil
}
