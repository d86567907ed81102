// Command perfbench is bgpsim's end-to-end benchmark. It drives the
// program's public entry points (jobspec.Run, runner.MapN, the bgpsimd
// HTTP handler) with seeded job specs, checks every output, and prints
// one JSON result line:
//
//	bash perfbench/run.sh --workload sweep-contention --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with
// --trace 1 it holds the per-layer metrics, derived from spans the
// benchmark records around each call into a layer. README.md maps each
// layer metric to the end-to-end metric it should move.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the seed whose output digests are pinned in pinned.
const defaultSeed = 1

// pinned holds, per workload, the SHA-256 of every output byte the
// workload's deterministic job set produces at defaultSeed. A
// speed-only change must leave these unchanged.
var pinned = map[string]string{
	"sweep-contention": "816374d656c153acab4002b15ccea7442ffd7c7963ae6b60bbf5686f83fcf3b7",
	"intrepid-sharded": "2297d73d84c186e646bacb35020558c0a7e70abd837aaca844444346a24961b9",
	"server-mixed":     "8e7b0811795e4e93a36736c5dd66bcc745d4c79ce5222f9dbc41bf9f6b3c9af5",
}

type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one run's metrics and correctness verdicts. Every
// metric is also printed as a human-readable line with its sample
// count or input sizes.
type report struct {
	traced            bool
	attempted, failed int
	problems          []string
	metrics           map[string]metric
}

// job counts one attempted job; a non-empty problem marks it failed.
func (r *report) job(problem string) {
	r.attempted++
	if problem != "" {
		r.failed++
		r.problems = append(r.problems, problem)
	}
}

// check records a correctness violation that is not tied to one job.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// e2e prints an end-to-end metric with detail, and records it for the
// JSON result of an untraced run.
func (r *report) e2e(name string, value float64, unit, detail string) {
	r.set(!r.traced, name, value, unit, detail)
}

// layer prints a per-layer metric, and records it for the JSON result
// of a traced run.
func (r *report) layer(name string, value float64, unit, detail string) {
	r.set(r.traced, name, value, unit, detail)
}

func (r *report) set(record bool, name string, value float64, unit, detail string) {
	if record {
		if r.metrics == nil {
			r.metrics = map[string]metric{}
		}
		r.metrics[name] = metric{Value: value, Unit: unit}
	}
	fmt.Printf("%-24s %14.6g %-6s %s\n", name, value, unit, detail)
}

// note prints a line that is not a result metric.
func note(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

// digest hashes output chunks in order, each length-prefixed.
type digest struct{ h hash.Hash }

func newDigest() digest { return digest{sha256.New()} }

func (d digest) add(chunks ...[]byte) {
	for _, c := range chunks {
		fmt.Fprintf(d.h, "%d:", len(c))
		d.h.Write(c)
	}
}

func (d digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// checkDigest compares the workload's output digest with the pinned
// value at the default seed.
func checkDigest(o options, rep *report, sum string) {
	note("output digest %s (seed %d)", sum, o.seed)
	if o.seed == defaultSeed {
		rep.check(sum == pinned[o.workload], "output digest %s != pinned %s", sum, pinned[o.workload])
	}
}

// timeSetup runs a workload's set-up n times and reports the median
// duration as setup_s. It returns the last set-up's state and hands
// every earlier one to discard (when non-nil), untimed.
func timeSetup[S any](rep *report, n int, what string, setup func() (S, error), discard func(S)) (S, error) {
	var s S
	var ds []float64
	for i := 0; i < n; i++ {
		if i > 0 && discard != nil {
			discard(s)
		}
		t := time.Now()
		var err error
		if s, err = setup(); err != nil {
			return s, err
		}
		ds = append(ds, time.Since(t).Seconds())
	}
	rep.e2e("setup_s", median(ds), "s", fmt.Sprintf("median of %d set-ups: %s", n, what))
	return s, nil
}

// reportMemory reports the process's peak resident memory, VmHWM
// from /proc/self/status. It is steadier between runs than the Go
// runtime's MemStats.Sys, which grows in arena-sized steps.
func reportMemory(rep *report) error {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.Atoi(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")))
			if err != nil {
				return fmt.Errorf("VmHWM %q: %v", v, err)
			}
			rep.e2e("peak_mem_mb", float64(kb)/1024, "MB", "VmHWM at exit: peak resident memory of the process")
			return nil
		}
	}
	return fmt.Errorf("no VmHWM in /proc/self/status")
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[max(0, min(i, len(s)-1))]
}

// layerMetrics lists every per-layer metric with its unit, as
// BENCHMARK.json does. A traced run reports a layer its workload does
// not reach as 0.
var layerMetrics = [][2]string{
	{"jobspec.prepare_ms", "ms"}, {"jobspec.render_ms", "ms"},
	{"mpi.world_ms", "ms"}, {"mpi.run_s", "s"},
	{"sim.events", "count"}, {"sim.ns_per_event", "ns"},
	{"network.msgs", "count"}, {"network.bytes", "B"},
	{"runner.busy_frac", "frac"},
	{"mpi.shards_used", "count"}, {"mpi.shard_speedup", "x"}, {"mpi.peak_rank_state_b", "B"},
	{"go.gc_count", "count"}, {"go.gc_pause_ms", "ms"},
	{"obs.export_frac", "frac"},
	{"server.hit_ratio", "frac"}, {"server.evictions", "count"}, {"server.refused", "count"},
	{"server.overhead_frac", "frac"}, {"server.doc_kb", "KB"},
	{"trace.overhead_pct", "%"},
}

var workloads = map[string]func(options, *report) error{
	"sweep-contention": runSweep,
	"intrepid-sharded": runIntrepid,
	"server-mixed":     runServerMixed,
}

func main() {
	var o options
	var seconds, trace int
	var seed int64
	flag.StringVar(&o.workload, "workload", "", "workload: sweep-contention, intrepid-sharded, server-mixed")
	flag.Int64Var(&seed, "seed", defaultSeed, "workload seed")
	flag.IntVar(&seconds, "seconds", 30, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced mode and reports per-layer metrics")
	flag.Parse()
	o.seed, o.seconds, o.trace = uint64(seed), time.Duration(seconds)*time.Second, trace == 1
	run, ok := workloads[o.workload]
	if !ok || seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad --seconds\n", o.workload)
		os.Exit(2)
	}
	rep := report{traced: o.trace}
	if err := run(o, &rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	if o.trace {
		for _, m := range layerMetrics {
			if _, ok := rep.metrics[m[0]]; !ok {
				rep.layer(m[0], 0, m[1], "layer not on this workload's path")
			}
		}
	}
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL: %s\n", p)
	}
	res := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.metrics}
	if res.Attempted == 0 {
		res.Correct = false
	}
	fmt.Printf("# fail_frac %.6g (%d of %d jobs failed)\n", float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
