package mpi

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"bgpsim/internal/machine"
	"bgpsim/internal/network"
	"bgpsim/internal/obs"
	"bgpsim/internal/sim"
	"bgpsim/internal/trace"
)

// fuzzReader decodes a fuzz input one choice at a time; an exhausted
// input reads as zeros, so every input decodes to a complete program.
type fuzzReader struct {
	b []byte
	i int
}

// pick returns a choice in [0, n).
func (f *fuzzReader) pick(n int) int {
	if f.i >= len(f.b) {
		return 0
	}
	v := int(f.b[f.i]) % n
	f.i++
	return v
}

// fuzzOp is one global phase of a decoded program. Every phase is
// deadlock-free on its own: each rank runs the phase's whole pattern
// before moving to the next, and every receive has exactly one send.
type fuzzOp struct {
	kind  int
	bytes int
	perm  []int // exchanges: rank i sends to perm[i]
	inv   []int
	root  int
	color int // split phases: ranks split by id % color
	coll  int // which collective a collective or payload phase runs
	flops float64
}

// wild reports whether the phase posts AnySource receives: a plain
// AnySource phase, a payload gather or allreduce (GatherPayload
// receives from AnySource), or a split phase folding a payload
// allreduce.
func (o fuzzOp) wild() bool {
	switch o.kind {
	case fzAnySource:
		return true
	case fzPayload:
		return o.coll > 0
	case fzSplit:
		return o.coll >= 3
	}
	return false
}

const (
	fzExchange   = iota // Sendrecv along a random permutation
	fzAnySource         // every rank sends to the root, which receives from AnySource
	fzIsendRing         // a ring of either direction, in the program's ring style
	fzCollective        // one world collective
	fzSplit             // Split, then a collective on the sub-communicator (and a payload allreduce)
	fzPayload           // a payload collective, folded into the rank's value
	fzCompute           // rank-skewed compute
	numFuzzKinds
)

// Ring styles: how a program's ring phases communicate.
const (
	ringIsend      = iota // Irecv and Isend, then Waitall
	ringPersistent        // RecvInit and SendInit channels, two rounds of StartAll and WaitAllPersistent
	ringToken             // a blocking token pass with SendPayload and RecvPayload
	numRingStyles

	// ringMarker, read right after the pauses, announces a ring style
	// byte. Inputs written before ring styles existed end at their
	// pauses or go on with other bytes (mutated seeds), so they all
	// keep their Isend rings.
	ringMarker = 0xa5
)

// fuzzSizes mixes eager messages and rendezvous ones (BG/P's eager
// limit is 1,200 B).
var fuzzSizes = []int{0, 8, 1024, 1201, 8192, 65536}

// decodeProgram turns a fuzz input into a node count (BG/P SMP, one
// rank per node), collective overrides forcing software algorithms,
// a phase list, 1-3 pause points, each in 128ths of the run's elapsed
// time (1-255, so some pauses fall past the end), and the ring style.
// The pauses are read after the program, so an input decodes to the
// same program whatever pauses follow it; the ring style is read last,
// after ringMarker, and is ringIsend without it.
func decodeProgram(data []byte) (nodes int, coll map[string]string, ops []fuzzOp, pauses []int, ring int) {
	f := &fuzzReader{b: data}
	nodes = []int{4, 8, 16}[f.pick(3)]
	ranks := nodes
	coll = make(map[string]string)
	for _, op := range CollOps() {
		var soft []string
		for _, name := range CollAlgos(op) {
			if !collRegistry[algoKey{op, name}].HW {
				soft = append(soft, name)
			}
		}
		coll[op] = soft[f.pick(len(soft))]
	}
	n := 1 + f.pick(10)
	for i := 0; i < n; i++ {
		o := fuzzOp{kind: f.pick(numFuzzKinds), bytes: fuzzSizes[f.pick(len(fuzzSizes))]}
		switch o.kind {
		case fzExchange:
			o.perm = make([]int, ranks)
			for j := range o.perm {
				o.perm[j] = j
			}
			for j := ranks - 1; j > 0; j-- {
				k := f.pick(j + 1)
				o.perm[j], o.perm[k] = o.perm[k], o.perm[j]
			}
			o.inv = make([]int, ranks)
			for j, v := range o.perm {
				o.inv[v] = j
			}
		case fzAnySource:
			o.root = f.pick(ranks)
		case fzPayload:
			o.root = f.pick(ranks)
			o.coll = f.pick(3)
		case fzIsendRing:
			o.root = 1 + f.pick(ranks-1) // ring stride
		case fzCollective:
			o.coll = f.pick(10)
			o.root = f.pick(ranks)
		case fzSplit:
			o.color = 1 + f.pick(4)
			o.coll = f.pick(6)
		case fzCompute:
			o.flops = float64(1+f.pick(8)) * 1e4
		}
		ops = append(ops, o)
	}
	for i := 1 + f.pick(3); i > 0; i-- {
		pauses = append(pauses, 1+f.pick(255))
	}
	if f.pick(256) == ringMarker {
		ring = f.pick(numRingStyles)
	}
	return nodes, coll, ops, pauses, ring
}

// fuzzProgram returns the rank body of a decoded program. Payload
// results land in vals[rank], one slot per rank, so ranks on
// concurrent shard kernels never share a word.
func fuzzProgram(ops []fuzzOp, ring int, vals []int) func(*Rank) {
	sum := func(a, b interface{}) interface{} { return a.(int) + b.(int) }
	return func(r *Rank) {
		me, p := r.ID(), r.Size()
		w := r.World()
		for i, o := range ops {
			switch o.kind {
			case fzExchange:
				if o.perm[me] != me {
					r.Sendrecv(o.perm[me], o.bytes, i, o.inv[me], i)
				}
			case fzAnySource:
				if me != o.root {
					r.Send(o.root, o.bytes+me, i)
					continue
				}
				for k := 1; k < p; k++ {
					vals[me] = vals[me]*31 + r.Recv(AnySource, i)
				}
			case fzIsendRing:
				runFuzzRing(r, o, ring, i, vals)
			case fzCollective:
				runFuzzColl(w, r, o, i)
			case fzSplit:
				sub := w.Split(r, me%o.color, p-me)
				switch o.coll % 3 {
				case 0:
					sub.Allreduce(r, o.bytes, i%2 == 0)
				case 1:
					sub.Bcast(r, 0, o.bytes)
				default:
					sub.Alltoall(r, o.bytes/4+1)
				}
				if o.wild() {
					v := sub.AllreducePayload(r, 8, me+i, sum).(int)
					vals[me] = vals[me]*31 + v
				}
			case fzPayload:
				var v int
				switch o.coll {
				case 0:
					v = w.BcastPayload(r, o.root, o.bytes, o.root*7+i).(int)
				case 1:
					for _, x := range w.GatherPayload(r, o.root, o.bytes, me) {
						v = v*31 + x.(int)
					}
				default:
					v = w.AllreducePayload(r, o.bytes, me*7+i, sum).(int)
				}
				vals[me] = vals[me]*31 + v
			case fzCompute:
				r.Compute(o.flops*float64(1+me%3), 0, machine.ClassDGEMM)
			}
		}
	}
}

// runFuzzRing runs one ring phase, each rank sending to the rank o.root
// places on and receiving from the one as many places back.
func runFuzzRing(r *Rank, o fuzzOp, ring, i int, vals []int) {
	me, p := r.ID(), r.Size()
	dst, src := (me+o.root)%p, (me-o.root+p)%p
	switch ring {
	case ringIsend:
		rq := r.Irecv(src, i)
		sq := r.Isend(dst, o.bytes, i)
		r.Waitall(rq, sq)
	case ringPersistent:
		ch := []*PersistentRequest{r.RecvInit(src, i), r.SendInit(dst, o.bytes, i)}
		for k := 0; k < 2; k++ {
			StartAll(ch...)
			WaitAllPersistent(ch...)
		}
	default:
		// The ring splits into gcd(stride, p) cycles, one per residue
		// class; the class's lowest rank starts its token and the others
		// pass it on, adding their rank.
		g := o.root
		for q := p; q != 0; g, q = q, g%q {
		}
		if me < g {
			r.SendPayload(dst, o.bytes, i, me)
			_, v := r.RecvPayload(src, i)
			vals[me] = vals[me]*31 + v.(int)
			return
		}
		_, v := r.RecvPayload(src, i)
		r.SendPayload(dst, o.bytes, i, v.(int)+me)
	}
}

// runFuzzColl runs one world collective.
func runFuzzColl(w *Comm, r *Rank, o fuzzOp, i int) {
	b := o.bytes
	switch o.coll {
	case 0:
		w.Barrier(r)
	case 1:
		w.Bcast(r, o.root, b)
	case 2:
		w.Allreduce(r, b, i%2 == 0)
	case 3:
		w.Reduce(r, o.root, b, true)
	case 4:
		w.Allgather(r, b/8+1)
	case 5:
		w.Alltoall(r, b/8+1)
	case 6:
		w.Gather(r, o.root, b/8+1)
	case 7:
		w.Scatter(r, o.root, b/8+1)
	case 8:
		w.Scan(r, b)
	default:
		w.ReduceScatter(r, b/8+1)
	}
}

// modeRun is everything FuzzRunModes compares between run modes.
type modeRun struct {
	result  string // Result values, payload outcomes, or the error
	ties    string // the Result values that depend on the tie rule
	dump    []byte // the -events dump
	profile string // the obs profile
	elapsed sim.Duration
	shards  int // the event loops the run used
}

// runMode runs a decoded program at the given shard count (0 = the
// serial kernel) with a trace buffer and an obs recorder attached:
// straight (Execute) without pauses, otherwise stepwise, pausing at
// each of the given times (StepTo) before it finishes.
func runMode(t *testing.T, nodes int, coll map[string]string, ops []fuzzOp, ring, shards int, pauses []sim.Time) modeRun {
	cfg := Config{Machine: machine.Get(machine.BGP), Nodes: nodes, Mode: machine.SMP,
		Fidelity: network.Analytic, Coll: coll, Shards: shards}
	tb := trace.NewBuffer(0)
	rec := obs.NewRecorder()
	cfg.Trace, cfg.Probe = tb, rec
	vals := make([]int, nodes)
	prog := fuzzProgram(ops, ring, vals)
	var res *Result
	var err error
	if pauses == nil {
		res, err = Execute(cfg, prog)
	} else {
		run, berr := Begin(cfg, prog)
		if berr != nil {
			t.Fatal(berr)
		}
		for _, p := range pauses {
			run.StepTo(p)
		}
		res, err = run.Finish()
	}
	var m modeRun
	if err != nil {
		m.result = "error: " + err.Error()
	} else {
		m.elapsed, m.shards = res.Elapsed, res.Shards
		m.result = fmt.Sprintf("elapsed=%d ranks=%v lost=%v net={%s} vals=%v",
			res.Elapsed, res.RankElapsed, res.Lost, statString(res.Net), vals)
		// Whether a process is woken by a same-time completion, and
		// whether a message meets its receive or waits in the inbox for
		// it, follow the same-timestamp order of events.
		m.ties = fmt.Sprintf("events=%d peak=%d", res.Events, res.PeakRankState)
	}
	var buf bytes.Buffer
	tb.Dump(&buf)
	m.dump = buf.Bytes()
	m.profile = fmt.Sprintf("%+v", *rec.Profile())
	return m
}

// same reports whether two runs of one mode agree byte for byte.
func (m modeRun) same(o modeRun) bool {
	return m.result == o.result && m.ties == o.ties && m.shards == o.shards &&
		bytes.Equal(m.dump, o.dump) && m.profile == o.profile
}

// runNoReuse is runMode straight, with message-record reuse off.
func runNoReuse(t *testing.T, nodes int, coll map[string]string, ops []fuzzOp, ring, shards int) modeRun {
	recordNoReuse = true
	defer func() { recordNoReuse = false }()
	return runMode(t, nodes, coll, ops, ring, shards, nil)
}

// sortedLines returns the lines of a dump in sorted order.
func sortedLines(b []byte) []byte {
	lines := bytes.SplitAfter(b, []byte("\n"))
	sort.Slice(lines, func(i, j int) bool { return bytes.Compare(lines[i], lines[j]) < 0 })
	return bytes.Join(lines, nil)
}

// FuzzRunModes is a differential fuzzer over the run modes. It decodes
// the input into a deadlock-free random program on the analytic
// network, with every collective forced onto a fuzz-chosen software
// algorithm, that mixes permutation exchanges, AnySource receives,
// rings (Isend/Irecv, persistent channels or a blocking token pass
// with payloads), rendezvous-size messages, world collectives, Split
// sub-communicator collectives and payload collectives. It runs
// the program at shards 1, 2 and 4 and requires the same Result, the
// same payload outcomes, the same -events dump bytes and the same obs
// profile from each.
//
// Every mode, the serial kernel included, also runs stepwise: paused
// at the input's 1-3 pause points (StepTo) and then finished, a run
// must equal the straight run of its mode byte for byte.
//
// Every mode also runs with message-record reuse off
// (recordNoReuse) and must equal its run with reuse on byte for
// byte: that is the use-after-release guard, since a record released
// while still in use changes the run only when it is reused.
//
// The serial kernel breaks same-timestamp ties by creation order and
// the sharded kernels by canonical key (ROADMAP, "One kernel tie
// rule"), so serial runs are held to what does not depend on the tie
// rule. For programs without AnySource receives — where two messages
// reaching one wildcard receive at the same time may match in either
// order — the serial kernel must produce the same Result apart from
// the event count and the peak rank state, the same payload outcomes,
// the same obs profile and the same -events records, in any order
// within a timestamp. The programs run one rank per node, which keeps
// the node shared-memory channel, the other tie-sensitive state, out.
func FuzzRunModes(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 9, 0, 3, 0, 1, 1, 3, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 3, 1, 2, 1, 0, 2, 1, 0, 1, 2, 9, 1, 4, 3, 2, 5, 3, 4, 1, 2, 4, 2, 5, 5, 3, 0, 7, 1})
	// Persistent rings (8 nodes): a rendezvous ring of stride 3, an
	// exchange, a 64 KiB ring of stride 1 and an allreduce; one pause.
	f.Add([]byte{1, 0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 3,
		fzIsendRing, 3, 2, fzExchange, 1, 5, 4, 3, 2, 1, 0, 1,
		fzIsendRing, 5, 0, fzCollective, 2, 2, 0,
		0, 64, ringMarker, ringPersistent})
	// Token rings (16 nodes): four cycles of stride 4, one cycle of
	// stride 5, then AnySource receives; two pauses.
	f.Add([]byte{2, 2, 0, 1, 4, 3, 1, 0, 2, 1, 3, 2,
		fzIsendRing, 1, 3, fzIsendRing, 4, 4, fzAnySource, 2, 5,
		1, 40, 200, ringMarker, ringToken})
	f.Fuzz(func(t *testing.T, data []byte) {
		nodes, coll, ops, fracs, ring := decodeProgram(data)
		wild := false
		for _, o := range ops {
			wild = wild || o.wild()
		}
		want := runMode(t, nodes, coll, ops, ring, 1, nil)
		scale := sim.Time(want.elapsed)
		if scale == 0 {
			scale = sim.Time(sim.Microsecond)
		}
		pauses := make([]sim.Time, len(fracs))
		for i, q := range fracs {
			pauses[i] = scale * sim.Time(q) / 128
		}
		for _, shards := range []int{1, 2, 4, 0} {
			got := want
			if shards != 1 {
				got = runMode(t, nodes, coll, ops, ring, shards, nil)
			}
			paused := runMode(t, nodes, coll, ops, ring, shards, pauses)
			if !paused.same(got) {
				t.Fatalf("shards=%d: paused at %v, the run differs from the straight run\n got %s %s on %d loops\nwant %s %s on %d loops",
					shards, pauses, paused.result, paused.ties, paused.shards, got.result, got.ties, got.shards)
			}
			if fresh := runNoReuse(t, nodes, coll, ops, ring, shards); !fresh.same(got) {
				t.Fatalf("shards=%d: with record reuse off, the run differs\n got %s %s on %d loops\nwant %s %s on %d loops",
					shards, fresh.result, fresh.ties, fresh.shards, got.result, got.ties, got.shards)
			}
			if shards == 1 || (shards == 0 && wild) {
				continue
			}
			if got.result != want.result {
				t.Fatalf("shards=%d: result\n got %s\nwant %s (shards=1)", shards, got.result, want.result)
			}
			if shards != 0 && got.ties != want.ties {
				t.Fatalf("shards=%d: %s, shards=1 %s", shards, got.ties, want.ties)
			}
			gd, wd := got.dump, want.dump
			if shards == 0 {
				// The serial kernel orders same-timestamp events by creation,
				// so the same records may come in another order.
				gd, wd = sortedLines(gd), sortedLines(wd)
			}
			if !bytes.Equal(gd, wd) {
				t.Fatalf("shards=%d: -events dump differs from shards=1\n got %s\nwant %s", shards, gd, wd)
			}
			if got.profile != want.profile {
				t.Fatalf("shards=%d: obs profile\n got %s\nwant %s (shards=1)", shards, got.profile, want.profile)
			}
		}
	})
}
