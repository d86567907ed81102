// Package jobspec defines the canonical, versioned, JSON-serializable
// description of one simulation job — the single struct behind every
// entry point: the four CLIs (cmd/bgpsim, cmd/halo, cmd/hpcc,
// cmd/facility) parse their flags into a Spec and run it through Run;
// the bgpsimd job server accepts a Spec over HTTP, hashes its
// canonical form, and caches results (identical deterministic jobs are
// free); the public bgpsim package converts a Spec into a Config with
// NewSystemFromSpec.
//
// The contract that makes the hash load-bearing: the simulator is
// deterministic — a Spec's output (stdout bytes, artifact bytes) is a
// pure function of its canonical form, at any worker count and any
// shard count N >= 1. Canonical() materializes defaults and drops
// fields foreign to the job's kind, so two specs that mean the same
// job hash identically; Hash() additionally zeroes Shards, an
// execution knob: the serial kernel (shards 0) breaks same-timestamp
// ties by another rule and can print other bytes, so the bgpsimd
// server runs every job at shards 0 (identity form) and a cache hit
// across shard requests is therefore sound.
package jobspec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"bgpsim/internal/calib"
	"bgpsim/internal/facility"
	"bgpsim/internal/fault"
	"bgpsim/internal/machine"
	"bgpsim/internal/mpi"
	"bgpsim/internal/topology"
)

// Version is the current spec schema version. Decode accepts specs at
// or below it (0 means "current"); future versions are an error, not a
// silent reinterpretation.
const Version = 1

// Job kinds: which workload family the spec describes. The kind names
// double as the owning CLI's program name in diagnostics.
const (
	// KindBench is a single micro-benchmark (cmd/bgpsim).
	KindBench = "bench"
	// KindHalo is the Wallcraft HALO exchange (cmd/halo), including
	// its sweep and mapping-comparison modes.
	KindHalo = "halo"
	// KindHPCC is the HPC Challenge suite (cmd/hpcc).
	KindHPCC = "hpcc"
	// KindFacility is a multi-job facility workload (cmd/facility).
	KindFacility = "facility"
	// KindCalib is a calibration fit report: the seeded parameter
	// search of internal/calib run for one machine model.
	KindCalib = "calib"
)

// Spec is the canonical description of one simulation job. Exactly one
// Kind is set; fields foreign to the kind are ignored and erased by
// Canonical(). The zero value of every field means "default" — a Spec
// built from a partial JSON document and one built from full CLI flags
// canonicalize (and therefore hash) identically when they mean the
// same job.
//
// The worker count (-j) is deliberately absent: it never changes any
// output byte, so it is an execution resource, not part of the job.
type Spec struct {
	// Version is the schema version (Version; 0 means current).
	Version int `json:"version,omitempty"`
	// Kind selects the workload family: bench, halo, hpcc, facility.
	Kind string `json:"kind"`

	// Machine is the machine-catalog id (BG/P, BG/L, XT3, XT4/DC,
	// XT4/QC). Unused by facility jobs (the workload names its own).
	Machine string `json:"machine,omitempty"`
	// Mode is the node execution mode: SMP, DUAL, or VN.
	Mode string `json:"mode,omitempty"`
	// Ranks is the MPI task count (bench jobs).
	Ranks int `json:"ranks,omitempty"`
	// RankList is the process-count sweep of an hpcc job.
	RankList []int `json:"rank_list,omitempty"`

	// Bench names the micro-benchmark of a bench job: allreduce,
	// bcast, barrier, alltoall, pingpong.
	Bench string `json:"bench,omitempty"`
	// Bytes is the bench payload size. Nil means the default (8);
	// an explicit 0 is preserved (a zero-byte pingpong is the latency
	// benchmark, not an unset field).
	Bytes *int `json:"bytes,omitempty"`
	// Double selects double-precision operands (bench allreduce).
	// Nil means the default (true).
	Double *bool `json:"double,omitempty"`

	// GridX/GridY shape the halo job's virtual process grid.
	GridX int `json:"grid_x,omitempty"`
	GridY int `json:"grid_y,omitempty"`
	// Words is the halo size in 32-bit words.
	Words int `json:"words,omitempty"`
	// Iterations is the halo exchange repetition count.
	Iterations int `json:"iterations,omitempty"`
	// Protocol is the halo messaging protocol: isend, sendrecv,
	// irecvsend, persistent.
	Protocol string `json:"protocol,omitempty"`
	// Sweep runs the halo size sweep instead of a single exchange.
	Sweep bool `json:"sweep,omitempty"`
	// Mappings compares the paper's process mappings instead of a
	// single exchange.
	Mappings bool `json:"mappings,omitempty"`

	// Workload is the facility job's workload grammar string (see
	// facility.Parse).
	Workload string `json:"workload,omitempty"`

	// Mapping is the process-to-processor mapping (XYZT, TXYZ, ...).
	Mapping string `json:"mapping,omitempty"`
	// Fidelity selects the torus network model: analytic, contention,
	// packet. Kinds have different defaults (bench/halo: contention).
	Fidelity string `json:"fidelity,omitempty"`
	// Coll forces collective algorithms per op, e.g.
	// {"allreduce": "ring"}. See mpi.ParseCollSpec for the names.
	Coll map[string]string `json:"coll,omitempty"`
	// Faults is a deterministic fault-plan spec string, e.g.
	// "seed=3,recover,kill=5@40us" (see fault.ParseSpec).
	Faults string `json:"faults,omitempty"`
	// Var is a per-node performance-variability spec string, e.g.
	// "clock:2%,link:5%@7" (see fault.ParseVariabilitySpec). It
	// composes with Faults and, unlike link faults, never disqualifies
	// an analytic job from sharding.
	Var string `json:"var,omitempty"`
	// Shards partitions each simulation across N parallel kernel
	// shards. Output bytes are identical at any value N >= 1; zero runs
	// the serial kernel, whose output can differ. Hash() ignores it
	// (an execution knob; see the package comment).
	Shards int `json:"shards,omitempty"`

	// Events dumps the first N trace events to stdout (bench jobs).
	Events int `json:"events,omitempty"`
	// Trace captures a Chrome trace_event JSON artifact.
	Trace bool `json:"trace,omitempty"`
	// Profile prints the per-rank time decomposition and critical
	// path.
	Profile bool `json:"profile,omitempty"`
	// Links captures a per-link utilization CSV artifact.
	Links bool `json:"links,omitempty"`
}

// progname maps a kind to the CLI program name used in diagnostics, so
// jobspec-produced stderr lines are byte-identical to the historical
// per-CLI output.
func progname(kind string) string {
	if kind == KindBench {
		return "bgpsim"
	}
	return kind
}

// Canonical returns the spec with defaults materialized, the version
// stamped, and every field foreign to its kind erased. Two specs
// canonicalize equal exactly when they describe the same job, so
// Canonical is the basis of Hash and of the server's result cache.
// Canonical does not validate; an invalid spec canonicalizes to an
// invalid spec.
func (s Spec) Canonical() Spec {
	c := Spec{Version: Version, Kind: s.Kind}
	switch s.Kind {
	case KindBench:
		c.Machine = defStr(s.Machine, "BG/P")
		c.Mode = defStr(s.Mode, "VN")
		c.Ranks = defInt(s.Ranks, 256)
		c.Bench = defStr(s.Bench, "allreduce")
		b := 8
		if s.Bytes != nil {
			b = *s.Bytes
		}
		c.Bytes = &b
		d := s.Double == nil || *s.Double
		c.Double = &d
		c.Mapping = defStr(s.Mapping, "XYZT")
		c.Fidelity = defStr(s.Fidelity, "contention")
		c.Faults = s.Faults
		c.Var = s.Var
		c.Shards = s.Shards
		c.Events = s.Events
		c.Trace = s.Trace
		c.Profile = s.Profile
		c.Links = s.Links
	case KindHalo:
		c.Machine = defStr(s.Machine, "BG/P")
		c.Mode = defStr(s.Mode, "VN")
		c.GridX = defInt(s.GridX, 16)
		c.GridY = defInt(s.GridY, 8)
		c.Words = defInt(s.Words, 1000)
		c.Iterations = defInt(s.Iterations, 5)
		c.Protocol = defStr(s.Protocol, "isend")
		c.Mapping = defStr(s.Mapping, "TXYZ")
		c.Fidelity = defStr(s.Fidelity, "contention")
		c.Sweep = s.Sweep
		c.Mappings = s.Mappings
		c.Coll = copyColl(s.Coll)
		c.Faults = s.Faults
		c.Var = s.Var
		c.Shards = s.Shards
		c.Trace = s.Trace
		c.Profile = s.Profile
		c.Links = s.Links
	case KindHPCC:
		c.Machine = defStr(s.Machine, "BG/P")
		c.Mode = "VN" // the suite is defined at VN mode
		c.RankList = append([]int(nil), s.RankList...)
		if len(c.RankList) == 0 {
			c.RankList = []int{256}
		}
		c.Coll = copyColl(s.Coll)
		c.Faults = s.Faults
		c.Var = s.Var
		c.Shards = s.Shards
		c.Trace = s.Trace
		c.Profile = s.Profile
	case KindFacility:
		c.Workload = s.Workload
		c.Shards = s.Shards
	case KindCalib:
		c.Machine = defStr(s.Machine, "BG/P")
		c.Shards = s.Shards
	default:
		// Unknown kind: keep everything so Validate can report it
		// against the full submitted document.
		c = s
		c.Version = Version
	}
	return c
}

// CanonicalJSON returns the canonical spec as deterministic JSON:
// struct fields in declaration order, map keys sorted (encoding/json's
// documented behavior). Identical jobs serialize to identical bytes.
func (s Spec) CanonicalJSON() []byte {
	b, err := json.Marshal(s.Canonical())
	if err != nil {
		// A Spec contains only marshalable fields; this is unreachable.
		panic(fmt.Sprintf("jobspec: canonical marshal: %v", err))
	}
	return b
}

// Hash returns the job's content hash: the hex SHA-256 of the
// canonical JSON with Shards zeroed. Shards is excluded because it is
// an execution knob, not part of the job: the server runs every job
// at one fixed count (identity form), so the result cached under a
// hash never depends on the shard count a client asked for.
func (s Spec) Hash() string {
	c := s.Canonical()
	c.Shards = 0
	b, err := json.Marshal(c)
	if err != nil {
		panic(fmt.Sprintf("jobspec: canonical marshal: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Decode parses a JSON document into a canonical, validated Spec.
func Decode(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("jobspec: %v", err)
	}
	if s.Version > Version {
		return Spec{}, fmt.Errorf("jobspec: spec version %d is newer than this build's %d", s.Version, Version)
	}
	c := s.Canonical()
	if err := c.Validate(); err != nil {
		return Spec{}, err
	}
	return c, nil
}

// Validate checks the spec's fields against the catalogs and grammars
// they name. It validates the canonical form, so defaults never fail.
func (s Spec) Validate() error {
	c := s.Canonical()
	switch c.Kind {
	case KindBench:
		m, err := c.validateCommon()
		if err != nil {
			return err
		}
		if c.Ranks <= 0 {
			return fmt.Errorf("jobspec: rank count %d must be positive", c.Ranks)
		}
		switch c.Bench {
		case "allreduce", "bcast", "barrier", "alltoall", "pingpong":
		default:
			return fmt.Errorf("jobspec: unknown benchmark %q (valid: allreduce, bcast, barrier, alltoall, pingpong)", c.Bench)
		}
		if c.Bytes != nil && *c.Bytes < 0 {
			return fmt.Errorf("jobspec: payload size %d must be >= 0", *c.Bytes)
		}
		if c.Bench == "pingpong" && c.Ranks < 2 {
			return &LimitError{"ranks", fmt.Sprintf("pingpong needs at least 2 ranks, got %d", c.Ranks)}
		}
		if c.Bytes != nil && int64(*c.Bytes) > m.MemPerNode {
			return overMemory("bytes", fmt.Sprintf("%d bytes", *c.Bytes), m)
		}
		if c.Events < 0 {
			return fmt.Errorf("jobspec: events %d must be >= 0", c.Events)
		}
		if err := c.validateVar(); err != nil {
			return err
		}
		return c.validateFaults(c.Ranks)
	case KindHalo:
		m, err := c.validateCommon()
		if err != nil {
			return err
		}
		if c.GridX <= 0 || c.GridY <= 0 {
			return fmt.Errorf("jobspec: process grid %dx%d: dimensions must be positive", c.GridX, c.GridY)
		}
		// Each dimension first, so the product cannot wrap.
		if c.GridX > mpi.MaxRanks || c.GridY > mpi.MaxRanks || c.GridX*c.GridY > mpi.MaxRanks {
			return &LimitError{"grid_x/grid_y", fmt.Sprintf("process grid %dx%d exceeds the simulator's limit of %d ranks",
				c.GridX, c.GridY, mpi.MaxRanks)}
		}
		if c.Words <= 0 {
			return fmt.Errorf("jobspec: halo size %d words must be positive", c.Words)
		}
		if int64(c.Words) > m.MemPerNode/4 { // words*4 could wrap
			return overMemory("words", fmt.Sprintf("%d 4-byte words", c.Words), m)
		}
		if c.Iterations <= 0 {
			return fmt.Errorf("jobspec: iterations %d must be positive", c.Iterations)
		}
		if _, err := parseProtocol(c.Protocol); err != nil {
			return err
		}
		if c.Sweep && c.Mappings {
			return fmt.Errorf("jobspec: sweep and mappings are mutually exclusive")
		}
		if (c.Trace || c.Profile || c.Links) && (c.Sweep || c.Mappings) {
			return fmt.Errorf("jobspec: trace/profile/links apply to single-run mode only, not sweep or mappings")
		}
		if err := c.validateColl(); err != nil {
			return err
		}
		if err := c.validateVar(); err != nil {
			return err
		}
		return c.validateFaults(c.GridX * c.GridY)
	case KindHPCC:
		if _, err := machine.Lookup(machine.ID(c.Machine)); err != nil {
			return err
		}
		if len(c.RankList) == 0 {
			return fmt.Errorf("jobspec: hpcc needs at least one rank count")
		}
		for _, r := range c.RankList {
			if r <= 0 {
				return fmt.Errorf("jobspec: bad rank count %d: process counts must be positive", r)
			}
		}
		if (c.Trace || c.Profile) && len(c.RankList) != 1 {
			return fmt.Errorf("jobspec: trace/profile need a single rank count")
		}
		if err := c.validateColl(); err != nil {
			return err
		}
		if err := c.validateVar(); err != nil {
			return err
		}
		return c.validateFaults(c.RankList[0])
	case KindFacility:
		if c.Workload == "" {
			return fmt.Errorf("jobspec: facility needs a workload spec")
		}
		if _, err := facility.Parse(c.Workload); err != nil {
			return err
		}
	case KindCalib:
		found := false
		for _, id := range calib.Machines() {
			if machine.ID(c.Machine) == id {
				found = true
			}
		}
		if !found {
			return fmt.Errorf("jobspec: no calibration targets for machine %q (valid: %v)", c.Machine, calib.Machines())
		}
	default:
		return fmt.Errorf("jobspec: unknown kind %q (valid: bench, halo, hpcc, facility, calib)", c.Kind)
	}
	if c.Shards < 0 {
		return fmt.Errorf("jobspec: shard count %d must be >= 0", c.Shards)
	}
	return nil
}

// LimitError reports a spec that names a job beyond what the
// simulator can run: a message larger than a node's memory, a process
// grid past mpi.MaxRanks, or too few ranks for the benchmark. Virtual
// times of such jobs would overflow or never end, so Validate refuses
// them before they run.
type LimitError struct {
	Field  string // the JSON field at fault
	Reason string
}

func (e *LimitError) Error() string { return "jobspec: " + e.Field + ": " + e.Reason }

// overMemory reports a message, of size what, larger than the memory
// of one of machine m's nodes.
func overMemory(field, what string, m *machine.Machine) error {
	return &LimitError{field, fmt.Sprintf("a message of %s exceeds the %d bytes of memory per %s node", what, m.MemPerNode, m.ID)}
}

// validateCommon checks the machine/mode/mapping/fidelity block shared
// by bench and halo jobs, and returns the job's machine.
func (s Spec) validateCommon() (*machine.Machine, error) {
	m, err := machine.Lookup(machine.ID(s.Machine))
	if err != nil {
		return nil, err
	}
	if _, err := parseMode(s.Mode); err != nil {
		return nil, err
	}
	if !topology.Mapping(s.Mapping).Valid() {
		return nil, fmt.Errorf("jobspec: invalid mapping %q (want a permutation of X, Y, Z, T)", s.Mapping)
	}
	if s.Shards < 0 {
		return nil, fmt.Errorf("jobspec: shard count %d must be >= 0", s.Shards)
	}
	_, err = parseFidelity(s.Fidelity)
	return m, err
}

// validateColl re-parses the coll override map through the registry.
func (s Spec) validateColl() error {
	_, err := mpi.ParseCollSpec(collString(s.Coll))
	return err
}

// validateVar parses the variability spec once to surface errors at
// submission time instead of mid-run.
func (s Spec) validateVar() error {
	if s.Var == "" {
		return nil
	}
	_, err := fault.ParseVariabilitySpec(s.Var)
	return err
}

// validateFaults builds the fault plan once to surface spec errors at
// submission time instead of mid-run.
func (s Spec) validateFaults(ranks int) error {
	if s.Faults == "" {
		return nil
	}
	mode, err := parseMode(defStr(s.Mode, "VN"))
	if err != nil {
		return err
	}
	nodes := nodesFor(machine.ID(s.Machine), mode, ranks)
	_, _, err = fault.BuildForPartition(s.Faults, machine.ID(s.Machine), nodes)
	return err
}

// collString renders a coll override map back into the CLI's
// "op=algo,op=algo" string form with sorted keys (for re-parsing and
// error messages).
func collString(coll map[string]string) string {
	if len(coll) == 0 {
		return ""
	}
	parts := make([]string, 0, len(coll))
	for _, op := range sortedStringKeys(coll) {
		parts = append(parts, op+"="+coll[op])
	}
	return strings.Join(parts, ",")
}

func sortedStringKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

func defStr(v, def string) string {
	if v == "" {
		return def
	}
	return v
}

func defInt(v, def int) int {
	if v == 0 {
		return def
	}
	return v
}

func copyColl(m map[string]string) map[string]string {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
