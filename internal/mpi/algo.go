package mpi

import (
	"fmt"
	"sort"
	"strings"

	"bgpsim/internal/machine"
	"bgpsim/internal/sim"
)

// The collective layer is a dispatch registry: every collective body
// is a named CollAlgo, and each call picks one via (in order) the
// Config.Coll override, the machine's selection table
// (machine.CollTable), and a built-in fallback table. With the stock
// catalog tables the selection reproduces the historical hardwired
// behaviour byte for byte; overrides and edited tables expose the
// algorithm-choice knob the paper's collective results hinge on.

// CollArgs carries the size/shape parameters of one collective call.
// Bytes is the op's natural size parameter: the full payload for
// bcast/allreduce/reduce/scan, the per-rank contribution for
// allgather/gather/scatter/reducescatter, the per-pair exchange for
// alltoall, and zero for barrier.
type CollArgs struct {
	Root   int
	Bytes  int
	Double bool // double-precision operands (allreduce/reduce)
}

// CollAlgo is one registered collective algorithm.
type CollAlgo struct {
	Op   string // "bcast", "allreduce", ... (the key kind)
	Name string // "binomial", "ring", "tree-offload", ...

	// HW marks a hardware offload (BlueGene collective tree or global
	// interrupt network). HW algorithms run even under
	// AnalyticCollectives, mirroring the historical dispatch order.
	HW bool

	// Eligible reports whether the algorithm can serve a call of this
	// shape on the machine (nil = always). world says the communicator
	// is COMM_WORLD — the hardware networks span the whole partition
	// and serve nothing smaller.
	Eligible func(m *machine.Machine, world bool, procs int, a CollArgs) bool

	// Run executes the algorithm; key is the collective's matching key.
	// Software algorithms only (HW algorithms supply Dur instead).
	Run func(c *Comm, r *Rank, key collKey, a CollArgs)

	// Dur computes a hardware offload's duration; runColl performs the
	// gate sync itself so the hot hardware path stays one call deep
	// (an extra frame there overflows the initial coroutine stack and
	// forces a stack copy on every fresh rank).
	Dur func(c *Comm, a CollArgs) sim.Duration

	full string // "op/name", set at registration
}

func (al *CollAlgo) eligible(m *machine.Machine, world bool, procs int, a CollArgs) bool {
	return al.Eligible == nil || al.Eligible(m, world, procs, a)
}

// opID indexes a collective op; the wrappers dispatch with these so
// the per-call path never hashes op names.
type opID int

// Collective op indices, in collOpNames order.
const (
	opBarrier opID = iota
	opBcast
	opAllreduce
	opReduce
	opAllgather
	opAlltoall
	opGather
	opScatter
	opScan
	opReduceScatter
	numCollOps
)

// collOpNames names the ops (the key kinds), indexed by opID.
var collOpNames = [numCollOps]string{
	"barrier", "bcast", "allreduce", "reduce", "allgather",
	"alltoall", "gather", "scatter", "scan", "reducescatter",
}

// opIndex maps an op name to its index.
func opIndex(op string) (opID, bool) {
	for i, o := range collOpNames {
		if o == op {
			return opID(i), true
		}
	}
	return 0, false
}

// algoKey indexes the registry (registration and cold-path lookups
// only; the per-call dispatch uses the World's pre-resolved tables).
type algoKey struct{ op, name string }

var collRegistry = map[algoKey]*CollAlgo{}

// registerCollAlgo adds an algorithm to the registry (called from
// package init; duplicate or malformed registrations are bugs).
func registerCollAlgo(al *CollAlgo) {
	if _, ok := opIndex(al.Op); !ok {
		panic(fmt.Sprintf("mpi: registering algorithm for unknown collective %q", al.Op))
	}
	if al.Name == "" || (al.HW && al.Dur == nil) || (!al.HW && al.Run == nil) {
		panic(fmt.Sprintf("mpi: incomplete registration for %s/%s", al.Op, al.Name))
	}
	k := algoKey{al.Op, al.Name}
	if _, dup := collRegistry[k]; dup {
		panic(fmt.Sprintf("mpi: duplicate algorithm %s/%s", al.Op, al.Name))
	}
	al.full = al.Op + "/" + al.Name
	collRegistry[k] = al
}

// fallbackCollTable backstops machines whose description carries no
// selection table (hand-built Machine values, ablation copies): it is
// the stock tree-machine table, whose hardware rules filter themselves
// out via eligibility on machines without the networks, reproducing
// the pre-table hardwired behaviour.
var fallbackCollTable = machine.DefaultCollTable()

// collRule is one pre-resolved selection rule: the bounds of a
// machine.CollRule with the algorithm pointer already looked up.
type collRule struct {
	maxBytes, minProcs, maxProcs int
	al                           *CollAlgo
}

// resolveCollRules compiles one op's rules, dropping rules that name
// unregistered algorithms (documented as skipped).
func resolveCollRules(t machine.CollTable, op opID) []collRule {
	var out []collRule
	for _, ru := range t[collOpNames[op]] {
		if al := collRegistry[algoKey{collOpNames[op], ru.Algo}]; al != nil {
			out = append(out, collRule{ru.MaxBytes, ru.MinProcs, ru.MaxProcs, al})
		}
	}
	return out
}

// buildCollTables pre-resolves the world's dispatch tables: per op,
// the optional override algorithm and the machine rules with the
// fallback table appended. Done once at NewWorld so the per-collective
// dispatch is a bounds walk over a slice — no map lookups (hashing
// string keys forces a stack grow on every fresh rank coroutine).
func (w *World) buildCollTables() {
	for op := opID(0); op < numCollOps; op++ {
		w.collRules[op] = append(resolveCollRules(w.mach.Coll, op),
			resolveCollRules(fallbackCollTable, op)...)
		if name, ok := w.cfg.Coll[collOpNames[op]]; ok {
			w.collOver[op] = collRegistry[algoKey{collOpNames[op], name}]
		}
	}
}

// selectColl resolves the algorithm for one collective call: the
// config override when eligible, then the first matching eligible
// rule (machine table first, built-in fallback after).
func (w *World) selectColl(op opID, world bool, procs int, a CollArgs) *CollAlgo {
	if al := w.collOver[op]; al != nil && al.eligible(w.mach, world, procs, a) {
		return al
	}
	for i := range w.collRules[op] {
		ru := &w.collRules[op][i]
		if ru.maxBytes > 0 && a.Bytes > ru.maxBytes {
			continue
		}
		if ru.minProcs > 0 && procs < ru.minProcs {
			continue
		}
		if ru.maxProcs > 0 && procs > ru.maxProcs {
			continue
		}
		if ru.al.eligible(w.mach, world, procs, a) {
			return ru.al
		}
	}
	panic(fmt.Sprintf("mpi: no eligible algorithm for %s (%d ranks, %d bytes) on %s",
		collOpNames[op], procs, a.Bytes, w.mach.Name))
}

// runColl is the single dispatch point for every collective: it draws
// the collective's sequence number, selects the algorithm (pick), and
// runs the hardware offload or the closed-form analytic model through
// the collective's gate (gateColl), or the software algorithm. Selection
// and gating live in helpers to keep runColl's own frame small: it sits
// on every rank's collective path, which must fit the rank stack budget
// (docs/PERFORMANCE.md). It also range-checks a rooted collective's
// root (every other collective passes root 0), so the entry points
// stay small enough to inline into the rank's program.
func (c *Comm) runColl(r *Rank, op opID, a CollArgs) {
	if uint(a.Root) >= uint(c.Size()) {
		badRoot(op, a.Root)
	}
	if c.w.recovery {
		c.runCollRecover(r, op, a)
		return
	}
	seq := c.nextSeq(r)
	al := c.pick(r, op, a)
	if al.HW || c.w.cfg.AnalyticCollectives {
		c.gateColl(r, seq, op, al, a)
		return
	}
	key := newCollKey(c, seq, op)
	if r.pb != nil {
		probeColl(r, key, al.full, true)
	}
	prev := r.collAlgo
	r.collAlgo = al.full
	al.Run(c, r, key, a)
	r.collAlgo = prev
	if r.pb != nil {
		probeColl(r, key, al.full, false)
	}
}

//go:noinline
func badRoot(op opID, root int) {
	panic(fmt.Sprintf("mpi: %s root %d out of range", collOpNames[op], root))
}

// pick selects one collective call's algorithm and counts the
// operation once per call, on the communicator's rank 0.
//
//go:noinline
func (c *Comm) pick(r *Rank, op opID, a CollArgs) *CollAlgo {
	al := c.w.selectColl(op, c.isWorld, c.Size(), a)
	if c.Rank(r) == 0 {
		r.net.CollOp(al.full)
	}
	return al
}

// gateColl runs a hardware offload or a closed-form collective: the
// rank enters the call's gate, which releases every member at the last
// arrival plus the collective's duration.
func (c *Comm) gateColl(r *Rank, seq int, op opID, al *CollAlgo, a CollArgs) {
	call := c.uniformCall(r, seq, op, al, a)
	if r.pb != nil {
		probeSpan(r, call.key, al.full, true)
	}
	c.sync(r, call, nil)
	if r.pb != nil {
		probeSpan(r, call.key, al.full, false)
	}
}

// probeColl records one edge of a software collective's span. It is
// the one place a software collective renders its key's text form, so
// the allocation stays out of runColl's frame.
//
//go:noinline
func probeColl(r *Rank, key collKey, algo string, enter bool) {
	probeSpan(r, key.String(), algo, enter)
}

// probeSpan records one edge of a collective span under its text key.
// Kept out of runColl so the interface-call spill slots don't widen the
// frame of every collective call (runColl sits on the stack of each
// rank's deepest path; a fat frame there grows the stack of every
// fresh rank coroutine).
//
//go:noinline
func probeSpan(r *Rank, key, algo string, enter bool) {
	if enter {
		r.pb.CollEnter(r.id, r.proc.Now(), key, algo)
	} else {
		r.pb.CollExit(r.id, r.proc.Now(), key, algo)
	}
}

// collAnalytic returns the closed-form duration for op (analytic.go),
// mirroring the per-op models the pre-registry dispatch used.
func collAnalytic(c *Comm, op opID, a CollArgs) sim.Duration {
	p := c.Size()
	switch op {
	case opBarrier:
		return c.w.analyticBarrier(p)
	case opBcast:
		return c.w.analyticBcast(p, a.Bytes)
	case opAllreduce:
		return c.w.analyticAllreduce(p, a.Bytes)
	case opReduce:
		return c.w.analyticReduce(p, a.Bytes)
	case opAllgather:
		return c.w.analyticAllgather(p, a.Bytes)
	case opAlltoall:
		return c.w.analyticAlltoall(p, a.Bytes)
	case opGather, opScatter: // scatter mirrors gather
		return c.w.analyticGather(p, a.Bytes)
	case opScan:
		return c.w.analyticAllreduce(p, a.Bytes)
	case opReduceScatter: // half of a Rabenseifner allreduce
		return c.w.analyticAllreduce(p, a.Bytes*p) / 2
	}
	panic("mpi: no analytic model for collective " + collOpNames[op])
}

// CollOps returns the collective operation names in a fixed order.
func CollOps() []string {
	out := make([]string, numCollOps)
	copy(out, collOpNames[:])
	return out
}

// CollAlgos returns the registered algorithm names for op, sorted.
func CollAlgos(op string) []string {
	var out []string
	for k := range collRegistry {
		if k.op == op {
			out = append(out, k.name)
		}
	}
	sort.Strings(out)
	return out
}

// AlgoEligible reports whether the registered algorithm op/name could
// serve a call of the given shape on machine m.
func AlgoEligible(m *machine.Machine, op, name string, bytes, procs int, double, world bool) bool {
	al := collRegistry[algoKey{op, name}]
	return al != nil && al.eligible(m, world, procs, CollArgs{Bytes: bytes, Double: double})
}

// SelectCollAlgo returns the algorithm name m's selection table picks
// for a call of the given shape (with no override in force).
func SelectCollAlgo(m *machine.Machine, op string, bytes, procs int, double, world bool) string {
	i, ok := opIndex(op)
	if !ok {
		panic(fmt.Sprintf("mpi: unknown collective %q", op))
	}
	a := CollArgs{Bytes: bytes, Double: double}
	rules := append(resolveCollRules(m.Coll, i), resolveCollRules(fallbackCollTable, i)...)
	for _, ru := range rules {
		if ru.maxBytes > 0 && bytes > ru.maxBytes {
			continue
		}
		if ru.minProcs > 0 && procs < ru.minProcs {
			continue
		}
		if ru.maxProcs > 0 && procs > ru.maxProcs {
			continue
		}
		if ru.al.eligible(m, world, procs, a) {
			return ru.al.Name
		}
	}
	panic(fmt.Sprintf("mpi: no eligible algorithm for %s (%d ranks, %d bytes) on %s",
		op, procs, bytes, m.Name))
}

// ParseCollSpec parses a collective-override list of the form
// "allreduce=ring,bcast=binomial" into a Config.Coll map, validating
// every op and algorithm name. An empty spec returns nil.
func ParseCollSpec(s string) (map[string]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	out := make(map[string]string)
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		op, name, ok := strings.Cut(f, "=")
		if !ok || op == "" || name == "" {
			return nil, fmt.Errorf("mpi: bad collective override %q (want op=algorithm, e.g. allreduce=ring)", f)
		}
		if _, ok := opIndex(op); !ok {
			return nil, fmt.Errorf("mpi: unknown collective %q (valid: %s)", op, strings.Join(CollOps(), ","))
		}
		if collRegistry[algoKey{op, name}] == nil {
			return nil, fmt.Errorf("mpi: unknown algorithm %q for %s (valid: %s)",
				name, op, strings.Join(CollAlgos(op), ","))
		}
		out[op] = name
	}
	return out, nil
}
