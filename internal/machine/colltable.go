package machine

// Collective-algorithm selection tables. Each machine carries a
// CollTable mapping a collective op ("bcast", "allreduce", ...) to an
// ordered rule list; the MPI layer walks the rules and runs the first
// registered, eligible algorithm whose size/rank bounds match the
// call. The stock tables below reproduce the historical hardwired
// dispatch: BlueGene routes eligible full-COMM_WORLD barrier, bcast,
// allreduce and reduce to the collective tree / global interrupt
// networks and falls back to the MPICH-style software switch points;
// the Cray XT picks purely among torus algorithms.

// CollRule is one row of a selection table. Zero bounds are open:
// MaxBytes 0 accepts any size, MinProcs/MaxProcs 0 accept any
// communicator size. Bounds are inclusive. Algo names an algorithm
// registered for the op in internal/mpi; a rule naming an algorithm
// that is unregistered or ineligible for a given call is skipped, so
// hardware rules are safe to leave in a table used on machines
// without the hardware.
type CollRule struct {
	MaxBytes int    // inclusive upper bound on the call's byte size (0 = unbounded)
	MinProcs int    // inclusive lower bound on communicator size (0 = none)
	MaxProcs int    // inclusive upper bound on communicator size (0 = unbounded)
	Algo     string // algorithm name, e.g. "binomial", "ring", "tree-offload"
}

// CollTable maps a collective op name to its selection rules, walked
// in order.
type CollTable map[string][]CollRule

// Clone returns a deep copy of the table.
func (t CollTable) Clone() CollTable {
	if t == nil {
		return nil
	}
	cp := make(CollTable, len(t))
	for op, rules := range t {
		cp[op] = append([]CollRule(nil), rules...)
	}
	return cp
}

// Software switch points shared by the stock tables, chosen to mirror
// common MPICH-style defaults (and matching the closed-form models in
// internal/mpi/analytic.go).
const (
	collAllreduceRDMax = 2048  // recursive doubling below, Rabenseifner above
	collBcastShortMax  = 12288 // unsegmented binomial below, pipelined above
)

// treeCollTable is the stock table for machines with a hardware
// collective tree and global interrupt network (BlueGene): hardware
// offload first — eligibility in the MPI layer restricts it to
// full-COMM_WORLD calls (and, for reductions, double-precision
// operands) — then the software switch points.
func treeCollTable() CollTable {
	return CollTable{
		"barrier": {
			{Algo: "hw-gi"},
			{Algo: "dissemination"},
		},
		"bcast": {
			{Algo: "tree-offload"},
			{MaxBytes: collBcastShortMax, Algo: "binomial"},
			{Algo: "binomial-pipelined"},
		},
		"allreduce": {
			{Algo: "tree-offload"},
			{MaxBytes: collAllreduceRDMax, Algo: "recdbl"},
			{Algo: "rabenseifner"},
		},
		"reduce": {
			{Algo: "tree-offload"},
			{Algo: "binomial"},
		},
		"allgather":     {{Algo: "ring"}},
		"alltoall":      {{Algo: "pairwise"}},
		"gather":        {{Algo: "binomial"}},
		"scatter":       {{Algo: "binomial"}},
		"scan":          {{Algo: "logstep"}},
		"reducescatter": {{Algo: "rechalving"}},
	}
}

// torusCollTable is the stock table for machines with no collective
// hardware (the Cray XT line): the same software switch points.
func torusCollTable() CollTable {
	t := treeCollTable()
	t["barrier"] = t["barrier"][1:]
	t["bcast"] = t["bcast"][1:]
	t["allreduce"] = t["allreduce"][1:]
	t["reduce"] = t["reduce"][1:]
	return t
}

// DefaultCollTable returns the selection table used when a Machine
// carries none (hand-built values, ablation copies): the tree-machine
// table, whose hardware rules filter themselves out by eligibility on
// machines without the networks.
func DefaultCollTable() CollTable {
	return treeCollTable()
}
