// Command bgpsim runs a single micro-benchmark on a simulated machine
// partition and prints its timing — the quick way to poke at the
// machine models.
//
// Usage:
//
//	bgpsim -machine BG/P -mode VN -ranks 1024 -bench allreduce -bytes 32768
//	bgpsim -machine XT4/QC -ranks 512 -bench pingpong
//	bgpsim -machine BG/P -ranks 2048 -bench bcast -bytes 1048576
//	bgpsim -machine BG/P -ranks 512 -bench barrier
//	bgpsim -machine BG/P -ranks 512 -bench alltoall -bytes 4096
//	bgpsim -machine BG/P -ranks 64 -bench alltoall -profile -trace out.json
//
// The flags parse into a jobspec.Spec — the same canonical job
// description the bgpsimd server accepts as JSON — and run through the
// shared jobspec.Run path, so a CLI invocation and the equivalent
// server job produce byte-identical output.
package main

import (
	"flag"
	"fmt"
	"os"

	"bgpsim/internal/jobspec"
)

func main() {
	mach := flag.String("machine", "BG/P", "machine: BG/P, BG/L, XT3, XT4/DC, XT4/QC")
	modeS := flag.String("mode", "VN", "execution mode: SMP, DUAL, VN")
	ranks := flag.Int("ranks", 256, "MPI tasks")
	benchS := flag.String("bench", "allreduce", "benchmark: allreduce, bcast, barrier, alltoall, pingpong")
	bytes := flag.Int("bytes", 8, "payload size")
	double := flag.Bool("double", true, "double precision operands (allreduce)")
	mapping := flag.String("mapping", "XYZT", "process mapping (XYZT, TXYZ, ...)")
	fidelity := flag.String("fidelity", "contention", "network model: contention, analytic, or packet")
	shards := flag.Int("shards", 0, "partition the ranks across N parallel kernel shards (analytic fidelity only; output is byte-identical at any N ≥ 1)")
	faultsFlag := flag.String("faults", "", "inject a deterministic fault plan, e.g. 'seed=3,recover,kill=5@40us' or 'blast=50us/7/1/0/0/1' (see internal/fault.ParseSpec)")
	varFlag := flag.String("var", "", "inject seeded per-node performance variability, e.g. 'clock:2%,link:5%@7' (see internal/fault.ParseVariabilitySpec)")
	events := flag.Int("events", 0, "dump the first N trace events")
	traceFile := flag.String("trace", "", "write a Chrome trace_event JSON timeline to FILE")
	profile := flag.Bool("profile", false, "print per-rank time decomposition and critical path")
	linksFile := flag.String("links", "", "write per-link utilization CSV to FILE")
	flag.Parse()

	spec := jobspec.Spec{
		Kind:     jobspec.KindBench,
		Machine:  *mach,
		Mode:     *modeS,
		Ranks:    *ranks,
		Bench:    *benchS,
		Bytes:    bytes,
		Double:   double,
		Mapping:  *mapping,
		Fidelity: *fidelity,
		Shards:   *shards,
		Faults:   *faultsFlag,
		Var:      *varFlag,
		Events:   *events,
		Trace:    *traceFile != "",
		Profile:  *profile,
		Links:    *linksFile != "",
	}
	res, err := jobspec.Run(spec, os.Stdout, os.Stderr)
	if err != nil {
		fail("%v", err)
	}
	if *traceFile != "" {
		if err := os.WriteFile(*traceFile, res.Artifact(jobspec.ArtifactTrace), 0o644); err != nil {
			fail("%v", err)
		}
	}
	if *linksFile != "" {
		if err := os.WriteFile(*linksFile, res.Artifact(jobspec.ArtifactLinks), 0o644); err != nil {
			fail("%v", err)
		}
	}
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "bgpsim: "+format+"\n", args...)
	os.Exit(1)
}
