// Package hpcc drives the HPC Challenge benchmark suite on the
// simulator: the single-process and embarrassingly-parallel tests
// (DGEMM, STREAM, FFT), the low-level communication tests (ping-pong
// and random ring), and the MPI-parallel tests (HPL, PTRANS, FFT,
// RandomAccess) whose scaling the paper's Figure 1 reports.
package hpcc

import (
	"math"

	"bgpsim/internal/core"
	"bgpsim/internal/cpu"
	"bgpsim/internal/fault"
	"bgpsim/internal/kernels"
	"bgpsim/internal/machine"
	"bgpsim/internal/mpi"
	"bgpsim/internal/network"
	"bgpsim/internal/obs"
	"bgpsim/internal/sim"
	"bgpsim/internal/topology"
)

// ProblemSizeN returns the HPL problem dimension filling the given
// fraction of the partition's aggregate memory, following the HPCC
// guidance the paper used (~80%).
func ProblemSizeN(m *machine.Machine, mode machine.Mode, ranks int, frac float64) int {
	memPerRank := float64(m.MemPerNode) / float64(m.RanksPerNode(mode))
	total := memPerRank * float64(ranks)
	return int(math.Sqrt(frac * total / 8))
}

// BlockingNB returns the paper's empirically chosen HPL blocking
// factors: 144 on BG/P, 168 on the XT.
func BlockingNB(id machine.ID) int {
	if id == machine.BGP || id == machine.BGL {
		return 144
	}
	return 168
}

// EPResults holds the Table 2 single-process (SP) and embarrassingly
// parallel (EP) test results plus the communication micro-benchmarks.
type EPResults struct {
	DGEMMGF       float64 // per-process DGEMM, GFlop/s
	StreamSPGB    float64 // single-process STREAM triad, GB/s
	StreamEPGB    float64 // embarrassingly-parallel STREAM triad per process, GB/s
	FFTEPGF       float64 // embarrassingly-parallel FFT per process, GFlop/s
	PingPongLatUS float64 // 0-byte one-way latency, microseconds
	PingPongBWGBs float64 // large-message ping-pong bandwidth, GB/s
	RandRingLatUS float64 // random-ring 0-byte latency, microseconds
	RandRingBWGBs float64 // random-ring per-process bandwidth, GB/s
}

// SingleAndEP runs the Table 2 tests for a machine at the given rank
// count in VN mode on the serial kernel.
func SingleAndEP(id machine.ID, ranks int) (*EPResults, error) {
	return SingleAndEPFaultySharded(id, ranks, nil, 0)
}

// SingleAndEPFaultySharded is SingleAndEP with a fault plan injected
// into the simulated communication tests — in practice a
// variability-only plan (Spec.Var), whose per-node bandwidth draws
// move the ping-pong and random-ring numbers. A nil plan is the
// historical healthy path, byte for byte.
//
// shards is the kernel-shard request for those tests. They run at
// contention fidelity, which the sharded kernel rejects, so today any
// request falls back to the serial kernel (output is identical either
// way); the parameter keeps the job surface uniform with bgpsim/halo
// and — being a parameter rather than package state — safe for
// concurrent jobs with different shard requests.
func SingleAndEPFaultySharded(id machine.ID, ranks int, plan *fault.Plan, shards int) (*EPResults, error) {
	m := machine.Get(id)
	model := cpu.New(m, machine.VN)
	r := &EPResults{
		DGEMMGF:    model.DGEMMRate() / 1e9,
		StreamSPGB: model.StreamTriadBW(false) / 1e9,
		StreamEPGB: model.StreamTriadBW(true) / 1e9,
		FFTEPGF:    model.FlopRate(machine.ClassFFT) / 1e9,
	}

	// Communication tests run on the simulated partition.
	cfg := core.PartitionConfig(id, machine.VN, ranks)
	cfg.Fidelity = network.Contention
	cfg.Shards = shards
	cfg.Faults = plan

	// Ping-pong between rank 0 and a rank half the machine away. Under
	// the default XYZT mapping, rank k < nodes sits on node k, so rank
	// nodes/2 is on a distinct, distant node.
	const ppBytes = 2 << 20
	var latOneWay, bwTime sim.Duration
	far := cfg.Nodes / 2
	if far == 0 {
		far = ranks - 1
	}
	_, err := mpi.Execute(cfg, func(r *mpi.Rank) {
		switch r.ID() {
		case 0:
			t0 := r.Now()
			r.Send(far, 0, 1)
			r.Recv(far, 2)
			latOneWay = r.Now().Sub(t0) / 2
			t0 = r.Now()
			r.Send(far, ppBytes, 3)
			r.Recv(far, 4)
			bwTime = r.Now().Sub(t0) / 2
		case far:
			r.Recv(0, 1)
			r.Send(0, 0, 2)
			r.Recv(0, 3)
			r.Send(0, ppBytes, 4)
		}
	})
	if err != nil {
		return nil, err
	}
	r.PingPongLatUS = latOneWay.Microseconds()
	r.PingPongBWGBs = float64(ppBytes) / bwTime.Seconds() / 1e9

	// Random ring: the ranks form a ring in a pseudo-random order and
	// every rank exchanges with both ring neighbours simultaneously;
	// report the mean per-process results.
	cfg2 := core.PartitionConfig(id, machine.VN, ranks)
	cfg2.Fidelity = network.Contention
	cfg2.Shards = shards
	cfg2.Faults = plan
	succ, pred := randRing(ranks, 42)
	const rrBytes = 2 << 20
	times := make([]sim.Duration, ranks)
	latTimes := make([]sim.Duration, ranks)
	_, err = mpi.Execute(cfg2, func(r *mpi.Rank) {
		me := r.ID()
		if succ[me] == me {
			return
		}
		t0 := r.Now()
		r.Sendrecv(succ[me], 1, 0, pred[me], 0)
		latTimes[me] = r.Now().Sub(t0)
		t0 = r.Now()
		r.Sendrecv(succ[me], rrBytes, 1, pred[me], 1)
		times[me] = r.Now().Sub(t0)
	})
	if err != nil {
		return nil, err
	}
	var latSum, bwSum float64
	n := 0
	for i := range times {
		if times[i] == 0 {
			continue
		}
		latSum += latTimes[i].Microseconds()
		bwSum += float64(rrBytes) / times[i].Seconds() / 1e9
		n++
	}
	if n > 0 {
		r.RandRingLatUS = latSum / float64(n)
		r.RandRingBWGBs = bwSum / float64(n)
	}
	return r, nil
}

// randRing returns successor and predecessor maps of a ring visiting
// the ranks in a deterministic pseudo-random order.
func randRing(n int, seed uint64) (succ, pred []int) {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	rng := sim.NewRNG(seed)
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	succ = make([]int, n)
	pred = make([]int, n)
	for k, r := range order {
		nx := order[(k+1)%n]
		succ[r] = nx
		pred[nx] = r
	}
	return succ, pred
}

// hplNonGEMMFraction is the fraction of HPL time spent in DGEMM on a
// well-tuned run; panel factorization, pivoting and solve account for
// the rest. [cal]
const hplNonGEMMFraction = 0.92

// HPLAnalytic returns the HPL performance in GFlop/s from the standard
// critical-path model: trailing-update DGEMM time, panel broadcast and
// row-swap bandwidth, and per-panel latency.
func HPLAnalytic(id machine.ID, mode machine.Mode, ranks, n, nb int) float64 {
	m := machine.Get(id)
	model := cpu.New(m, mode)
	p, q := nearSquareGrid(ranks)
	flops := kernels.HPLFlops(n)
	tComp := flops / (float64(ranks) * model.DGEMMRate()) / hplNonGEMMFraction

	beta := 1 / math.Min(m.TorusLinkBW, m.NICInjectBW)
	nf := float64(n)
	tBW := 8 * nf * nf * float64(3*p+q) / (2 * float64(p*q)) * beta

	dims := topology.DimsForNodes((ranks + m.RanksPerNode(mode) - 1) / m.RanksPerNode(mode))
	alpha := 2*m.SWLatency + float64(dims[0]+dims[1]+dims[2])/4*m.TorusHopLat
	panels := float64(n) / float64(nb)
	tLat := panels * float64(topology.BinomialRounds(p)+topology.BinomialRounds(q)) * alpha

	return flops / (tComp + tBW + tLat) / 1e9
}

// nearSquareGrid factors ranks into the most-square P x Q grid with
// P <= Q, the usual HPL choice.
func nearSquareGrid(ranks int) (p, q int) {
	p = 1
	for f := 1; f*f <= ranks; f++ {
		if ranks%f == 0 {
			p = f
		}
	}
	return p, ranks / p
}

// HPLSimulated runs an event-driven panel-level HPL on a small
// partition: per panel, the owning column factors it, broadcasts it
// along the process row, rows swap along the column, and everyone
// applies the trailing DGEMM update. It returns GFlop/s and exists to
// validate the analytic model's structure (the two agree within a
// small factor on overlapping configurations).
func HPLSimulated(id machine.ID, mode machine.Mode, p, q, n, nb int) (float64, error) {
	ranks := p * q
	cfg := core.PartitionConfig(id, mode, ranks)
	cfg.Fidelity = network.Contention
	res, err := mpi.Execute(cfg, func(r *mpi.Rank) {
		myRow := r.ID() % p
		myCol := r.ID() / p
		rowComm := r.World().Split(r, myRow, myCol) // peers across columns
		colComm := r.World().Split(r, myCol, myRow) // peers down my column
		panels := n / nb
		for k := 0; k < panels; k++ {
			remaining := n - k*nb
			ownerCol := k % q
			// Panel factorization on the owning column.
			if myCol == ownerCol {
				rows := remaining / p
				r.Compute(float64(nb)*float64(nb)*float64(rows), 8*float64(nb)*float64(rows),
					machine.ClassDGEMM)
			}
			// Broadcast the panel across the process row.
			panelBytes := 8 * nb * (remaining / p)
			rowComm.Bcast(r, ownerCol, panelBytes)
			// Pivot row swaps down the process column.
			swapBytes := 8 * nb * (remaining / q)
			colComm.Allgather(r, swapBytes/p+1)
			// Trailing-matrix update.
			um := float64(remaining / p)
			un := float64(remaining / q)
			r.Compute(kernels.DGEMMFlops(int(um), int(un), nb), 8*(um*un), machine.ClassDGEMM)
		}
	})
	if err != nil {
		return 0, err
	}
	return kernels.HPLFlops(n) / res.Elapsed.Seconds() / 1e9, nil
}

// FFTAnalytic returns the HPCC global FFT performance in GFlop/s: the
// local FFT work plus three global transposes (the standard
// six-step algorithm's communication).
func FFTAnalytic(id machine.ID, mode machine.Mode, ranks int) float64 {
	m := machine.Get(id)
	model := cpu.New(m, mode)
	// Vector length: ~1/8 of memory as complex128.
	memPerRank := float64(m.MemPerNode) / float64(m.RanksPerNode(mode))
	total := float64(ranks) * memPerRank
	nfft := math.Exp2(math.Floor(math.Log2(total / 8 / 16)))
	flops := 5 * nfft * math.Log2(nfft)
	tComp := flops / (float64(ranks) * model.FlopRate(machine.ClassFFT))
	tComm := 3 * alltoallTime(m, mode, ranks, 16*nfft/float64(ranks)/float64(ranks))
	return flops / (tComp + tComm) / 1e9
}

// PTRANSAnalytic returns the PTRANS rate in GB/s: a global transpose
// bounded by the torus bisection and the per-rank injection rate.
func PTRANSAnalytic(id machine.ID, mode machine.Mode, ranks int) float64 {
	m := machine.Get(id)
	memPerRank := float64(m.MemPerNode) / float64(m.RanksPerNode(mode))
	total := float64(ranks) * memPerRank
	n := math.Sqrt(0.2 * total / 8)
	bytes := 8 * n * n
	t := alltoallTime(m, mode, ranks, bytes/float64(ranks)/float64(ranks))
	return bytes / t / 1e9
}

// RandomAccessGUPS returns the MPI RandomAccess rate in GUPS using the
// hypercube-routing model of the power-of-two-optimized implementation
// the paper also measured: log2(P) exchange stages per bucket of 1024
// updates, plus the local random-update application cost.
func RandomAccessGUPS(id machine.ID, mode machine.Mode, ranks int) float64 {
	m := machine.Get(id)
	model := cpu.New(m, mode)
	const bucket = 1024.0
	dims := topology.DimsForNodes((ranks + m.RanksPerNode(mode) - 1) / m.RanksPerNode(mode))
	alpha := 2*m.SWLatency + float64(dims[0]+dims[1]+dims[2])/4*m.TorusHopLat
	beta := 1 / math.Min(m.TorusLinkBW, m.NICInjectBW)
	stages := float64(topology.BinomialRounds(ranks))
	// Per routing stage each rank forwards ~half its bucket (16 bytes
	// per update in flight: index + value).
	tRoute := stages * (alpha + bucket/2*16*beta)
	// Applying a bucket of updates: one logical op per update at the
	// irregular-access rate.
	tApply := bucket / model.FlopRate(machine.ClassUpdate)
	tRound := tRoute + tApply
	return float64(ranks) * bucket / tRound / 1e9
}

// alltoallTime is the closed-form all-to-all estimate shared by the
// parallel tests: pairwise rounds bounded below by the bisection.
func alltoallTime(m *machine.Machine, mode machine.Mode, ranks int, bytesPerPair float64) float64 {
	nodes := (ranks + m.RanksPerNode(mode) - 1) / m.RanksPerNode(mode)
	dims := topology.DimsForNodes(nodes)
	tor := topology.NewTorus(dims)
	alpha := 2*m.SWLatency + float64(dims[0]+dims[1]+dims[2])/4*m.TorusHopLat
	beta := 1 / math.Min(m.TorusLinkBW, m.NICInjectBW)
	p := float64(ranks)
	perRank := (p - 1) * (alpha + bytesPerPair*beta)
	bisBW := float64(tor.BisectionLinks()) * m.TorusLinkBW * m.BisectionDerate
	bisection := p * (p - 1) * bytesPerPair / 2 / bisBW
	return math.Max(perRank, bisection)
}

// CollBytes is the payload of the collective micro-benchmarks in
// CollBenchFaultySharded: the broadcast and allreduce buffer size in bytes.
const CollBytes = 8192

// collIters is the timed repetitions per collective in CollBenchFaultySharded.
const collIters = 4

// CollResults reports the simulated collective micro-benchmarks and
// the algorithm each one ran (from the machine's selection table, or
// the forced override).
type CollResults struct {
	BarrierUS     float64
	BcastUS       float64
	AllreduceUS   float64
	BarrierAlgo   string
	BcastAlgo     string
	AllreduceAlgo string
}

// CollBenchFaultySharded times barrier, broadcast and allreduce
// (CollBytes payload, double-precision operands) on the simulated
// partition in VN mode. A non-nil coll map forces algorithms per op
// (see mpi.ParseCollSpec); an override ineligible for the world
// communicator falls back to the machine's selection table, and the
// reported algorithm names reflect what actually ran. pb is an
// optional observability probe (nil for none); the raw simulation
// result is returned so callers can read the probe's views back. A
// deterministic fault plan (nil for none) is injected into the
// partition: link faults perturb the collectives, node kills abort the
// run with *mpi.RankFailure — or, with recovery enabled, drop the dead
// ranks and charge the rebuild to the timings. shards is the
// kernel-shard request (see SingleAndEPFaultySharded for why it is a
// parameter and what it currently does).
func CollBenchFaultySharded(id machine.ID, ranks int, coll map[string]string, plan *fault.Plan, pb obs.Probe, shards int) (*CollResults, *mpi.Result, error) {
	m := machine.Get(id)
	cfg := core.PartitionConfig(id, machine.VN, ranks)
	cfg.Fidelity = network.Contention
	cfg.Shards = shards
	cfg.Coll = coll
	cfg.Faults = plan
	cfg.Probe = pb
	res, err := mpi.Execute(cfg, func(r *mpi.Rank) {
		// Untimed barriers between phases keep one phase's stragglers
		// from contending with the next phase's traffic.
		w := r.World()
		w.Barrier(r)
		r.TimerStart("barrier")
		for i := 0; i < collIters; i++ {
			w.Barrier(r)
		}
		r.TimerStop("barrier")
		r.TimerStart("bcast")
		for i := 0; i < collIters; i++ {
			w.Bcast(r, 0, CollBytes)
		}
		r.TimerStop("bcast")
		w.Barrier(r)
		r.TimerStart("allreduce")
		for i := 0; i < collIters; i++ {
			w.Allreduce(r, CollBytes, true)
		}
		r.TimerStop("allreduce")
	})
	if err != nil {
		return nil, nil, err
	}
	return &CollResults{
		BarrierUS:     res.MaxTimer("barrier").Microseconds() / collIters,
		BcastUS:       res.MaxTimer("bcast").Microseconds() / collIters,
		AllreduceUS:   res.MaxTimer("allreduce").Microseconds() / collIters,
		BarrierAlgo:   chosenAlgo(m, coll, "barrier", 0, ranks),
		BcastAlgo:     chosenAlgo(m, coll, "bcast", CollBytes, ranks),
		AllreduceAlgo: chosenAlgo(m, coll, "allreduce", CollBytes, ranks),
	}, res, nil
}

// chosenAlgo names the algorithm a world collective of the given shape
// runs: the eligible override, else the selection table's pick.
func chosenAlgo(m *machine.Machine, coll map[string]string, op string, bytes, ranks int) string {
	if name, ok := coll[op]; ok && mpi.AlgoEligible(m, op, name, bytes, ranks, true, true) {
		return name
	}
	return mpi.SelectCollAlgo(m, op, bytes, ranks, true, true)
}
