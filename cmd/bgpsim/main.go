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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"bgpsim/internal/jobspec"
	"bgpsim/internal/mpi"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the job and writes its files, and returns the
// exit status: 0 on success, 1 on any error, 2 on a bad flag.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bgpsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mach := fs.String("machine", "BG/P", "machine: BG/P, BG/L, XT3, XT4/DC, XT4/QC")
	modeS := fs.String("mode", "VN", "execution mode: SMP, DUAL, VN")
	ranks := fs.Int("ranks", 256, "MPI tasks")
	benchS := fs.String("bench", "allreduce", "benchmark: allreduce, bcast, barrier, alltoall, pingpong")
	bytes := fs.Int("bytes", 8, "payload size")
	double := fs.Bool("double", true, "double precision operands (allreduce)")
	mapping := fs.String("mapping", "XYZT", "process mapping (XYZT, TXYZ, ...)")
	fidelity := fs.String("fidelity", "contention", "network model: contention, analytic, or packet")
	shards := fs.Int("shards", 0, "partition the ranks across N parallel kernel shards (analytic fidelity only; output is byte-identical at any N ≥ 1)")
	faultsFlag := fs.String("faults", "", "inject a deterministic fault plan, e.g. 'seed=3,recover,kill=5@40us' or 'blast=50us/7/1/0/0/1' (see internal/fault.ParseSpec)")
	varFlag := fs.String("var", "", "inject seeded per-node performance variability, e.g. 'clock:2%,link:5%@7' (see internal/fault.ParseVariabilitySpec)")
	events := fs.Int("events", 0, "dump the first N trace events")
	traceFile := fs.String("trace", "", "write a Chrome trace_event JSON timeline to FILE")
	profile := fs.Bool("profile", false, "print per-rank time decomposition and critical path")
	linksFile := fs.String("links", "", "write per-link utilization CSV to FILE")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

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
	res, err := jobspec.Run(spec, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bgpsim: %v\n", err)
		var rf *mpi.RankFailure
		if errors.As(err, &rf) && res != nil && len(res.Artifacts) > 0 {
			// An injected kill aborts the run, but the recorder kept
			// everything observed up to the abort: write the truncated
			// files out before failing.
			writeArtifacts(res, *traceFile, *linksFile, stderr)
		}
		return 1
	}
	if !writeArtifacts(res, *traceFile, *linksFile, stderr) {
		return 1
	}
	return 0
}

// writeArtifacts lands the in-memory artifacts in the files their
// flags named. It reports a failed write on stderr and returns false.
func writeArtifacts(res *jobspec.RunResult, traceFile, linksFile string, stderr io.Writer) bool {
	for _, f := range []struct{ path, name string }{
		{traceFile, jobspec.ArtifactTrace},
		{linksFile, jobspec.ArtifactLinks},
	} {
		if f.path == "" {
			continue
		}
		if err := os.WriteFile(f.path, res.Artifact(f.name), 0o644); err != nil {
			fmt.Fprintf(stderr, "bgpsim: %v\n", err)
			return false
		}
	}
	return true
}
