// Command paper regenerates the tables and figures of "Early
// Evaluation of IBM BlueGene/P" (SC'08) from the simulator.
//
// Usage:
//
//	paper -exp all            # every experiment at reduced scale
//	paper -exp fig4,table3    # specific experiments
//	paper -exp fig1 -full     # the paper's actual process counts
//	paper -exp all -out results/   # also write .txt and .csv files
//	paper -exp all -j 8       # 8 concurrent simulations per sweep
//
// Sweep points run concurrently on a worker pool (-j, default
// GOMAXPROCS); each simulation is deterministic and results are
// assembled in input order, so stdout is byte-identical at any -j.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"bgpsim/internal/paper"
	"bgpsim/internal/runner"
)

// selectExperiments resolves the -exp flag: "all", or a comma-
// separated list of experiment ids. An unknown id is an error naming
// the valid ones.
func selectExperiments(expFlag string) ([]paper.Experiment, error) {
	if expFlag == "all" {
		return paper.All(), nil
	}
	var exps []paper.Experiment
	for _, id := range strings.Split(expFlag, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			return nil, fmt.Errorf("paper: empty experiment id in -exp %q (valid: %s)", expFlag, strings.Join(paper.IDs(), ","))
		}
		e, err := paper.Get(id) // Get's error names the valid ids
		if err != nil {
			return nil, err
		}
		exps = append(exps, e)
	}
	return exps, nil
}

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment ids, or 'all'; one of "+strings.Join(paper.IDs(), ","))
	full := flag.Bool("full", false, "run at the paper's full process counts and sizes")
	out := flag.String("out", "", "directory to write per-experiment .txt and .csv files")
	list := flag.Bool("list", false, "list experiments and exit")
	verify := flag.Bool("verify", false, "check the paper's claims against the simulation and exit")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "concurrent simulations per sweep (results are identical at any -j)")
	shards := flag.Int("shards", 0, "run shard-eligible workloads on N parallel kernel shards (output is byte-identical at any N ≥ 1)")
	flag.Parse()
	runner.SetWorkers(*jobs)
	if *shards < 0 {
		fmt.Fprintf(os.Stderr, "paper: shard count %d must be >= 0\n", *shards)
		os.Exit(1)
	}
	if *shards > 1 {
		// Sharded jobs run several kernel goroutines each; shrink the
		// sweep pool so the process stays within the -j budget.
		runner.SetWorkers(runner.BudgetWorkers(*shards))
	}

	if *verify {
		results := paper.VerifyClaims(paper.Options{Full: *full, Shards: *shards})
		failed := 0
		for _, r := range results {
			mark := "PASS"
			if !r.Pass {
				mark = "FAIL"
				failed++
			}
			fmt.Printf("[%s] %-20s %s\n", mark, r.Claim.ID, r.Claim.Text)
			if r.Err != nil {
				fmt.Printf("       error: %v\n", r.Err)
			} else {
				fmt.Printf("       %s\n", r.Detail)
			}
		}
		fmt.Printf("\n%d/%d claims verified\n", len(results)-failed, len(results))
		if failed > 0 {
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, e := range paper.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	exps, err := selectExperiments(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	opts := paper.Options{Full: *full, Shards: *shards}
	for _, e := range exps {
		start := time.Now()
		tables, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		// Wall time goes to stderr so stdout is byte-identical at any -j.
		fmt.Fprintf(os.Stderr, "%s: %.1fs\n", e.ID, time.Since(start).Seconds())
		fmt.Printf("==== %s: %s ====\n\n", e.ID, e.Title)
		var txt, csv strings.Builder
		for _, tb := range tables {
			fmt.Println(tb)
			if tb.Chart != "" {
				fmt.Println(tb.Chart)
			}
			txt.WriteString(tb.String())
			if tb.Chart != "" {
				txt.WriteString("\n" + tb.Chart)
			}
			txt.WriteString("\n")
			csv.WriteString("# " + tb.Title + "\n")
			csv.WriteString(tb.CSV())
			csv.WriteString("\n")
		}
		if *out != "" {
			if err := os.MkdirAll(*out, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			base := filepath.Join(*out, e.ID)
			if err := os.WriteFile(base+".txt", []byte(txt.String()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := os.WriteFile(base+".csv", []byte(csv.String()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
}
