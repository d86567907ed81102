// Command halo runs the Wallcraft HALO benchmark on a simulated
// machine: the cost of a two-phase 1-2 row/column halo exchange on a
// 2-D virtual process grid (the paper's Figure 2).
//
// Usage:
//
//	halo -gx 32 -gy 16 -words 2048
//	halo -gx 32 -gy 16 -sweep            # sweep halo sizes
//	halo -gx 32 -gy 16 -mappings -words 20000
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
	"os"
	"runtime"

	"bgpsim/internal/jobspec"
	"bgpsim/internal/mpi"
	"bgpsim/internal/runner"
)

func main() {
	mach := flag.String("machine", "BG/P", "machine id")
	modeS := flag.String("mode", "VN", "execution mode: SMP, DUAL, VN")
	gx := flag.Int("gx", 16, "virtual process grid columns")
	gy := flag.Int("gy", 8, "virtual process grid rows")
	words := flag.Int("words", 1000, "halo size in 32-bit words")
	mapping := flag.String("mapping", "TXYZ", "process mapping")
	protoS := flag.String("protocol", "isend", "protocol: isend, sendrecv, irecvsend, persistent")
	collFlag := flag.String("coll", "", "force collective algorithms, e.g. barrier=reduce-bcast")
	faultsFlag := flag.String("faults", "", "inject a deterministic fault plan, e.g. 'seed=3,recover,kill=5@40us' or 'blast=50us/7/1/0/0/1' (see internal/fault.ParseSpec)")
	varFlag := flag.String("var", "", "inject seeded per-node performance variability, e.g. 'clock:2%,link:5%@7' (see internal/fault.ParseVariabilitySpec)")
	sweep := flag.Bool("sweep", false, "sweep halo sizes")
	mappings := flag.Bool("mappings", false, "compare all predefined mappings")
	analytic := flag.Bool("analytic", false, "use the analytic network model instead of link contention (required for -shards)")
	shards := flag.Int("shards", 0, "partition the ranks across N parallel kernel shards (needs -analytic; output is byte-identical at any N ≥ 1)")
	traceFile := flag.String("trace", "", "write a Chrome trace_event JSON timeline to FILE (single-run mode)")
	profile := flag.Bool("profile", false, "print per-rank time decomposition and critical path (single-run mode)")
	linksFile := flag.String("links", "", "write per-link utilization CSV to FILE (single-run mode)")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "concurrent simulations (results are identical at any -j)")
	flag.Parse()
	runner.SetWorkers(*jobs)
	if *shards > 1 {
		// Each sweep job now runs several kernel goroutines: split the
		// -j budget so the process stays within it. Results are
		// identical at any worker count either way.
		runner.SetWorkers(runner.BudgetWorkers(*shards))
	}

	coll, err := jobspec.ParseColl(*collFlag)
	if err != nil {
		fail(err)
	}
	fidelity := "contention"
	if *analytic {
		fidelity = "analytic"
	}
	spec := jobspec.Spec{
		Kind:       jobspec.KindHalo,
		Machine:    *mach,
		Mode:       *modeS,
		GridX:      *gx,
		GridY:      *gy,
		Words:      *words,
		Iterations: 5,
		Protocol:   *protoS,
		Mapping:    *mapping,
		Fidelity:   fidelity,
		Coll:       coll,
		Faults:     *faultsFlag,
		Var:        *varFlag,
		Shards:     *shards,
		Sweep:      *sweep,
		Mappings:   *mappings,
		Trace:      *traceFile != "",
		Profile:    *profile,
		Links:      *linksFile != "",
	}
	res, err := jobspec.Run(spec, os.Stdout, os.Stderr)
	if err != nil {
		var rf *mpi.RankFailure
		if errors.As(err, &rf) && res != nil && len(res.Artifacts) > 0 {
			// An injected kill aborts the run, but the recorder kept
			// everything observed up to the abort: write the truncated
			// timeline out before failing.
			fmt.Fprintln(os.Stderr, "halo:", err)
			writeArtifacts(res, *traceFile, *linksFile)
			os.Exit(1)
		}
		fail(err)
	}
	writeArtifacts(res, *traceFile, *linksFile)
}

// writeArtifacts lands the in-memory artifacts in the files their
// flags named.
func writeArtifacts(res *jobspec.RunResult, traceFile, linksFile string) {
	if traceFile != "" {
		if err := os.WriteFile(traceFile, res.Artifact(jobspec.ArtifactTrace), 0o644); err != nil {
			fail(err)
		}
	}
	if linksFile != "" {
		if err := os.WriteFile(linksFile, res.Artifact(jobspec.ArtifactLinks), 0o644); err != nil {
			fail(err)
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "halo:", err)
	os.Exit(1)
}
