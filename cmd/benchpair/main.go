// Command benchpair reads the paired rows of the end-to-end ledger
// (BENCH_e2e.json, one JSON object per line) and summarises each batch
// of alternating parent/change runs. A host that drifts by more than a
// change's effect between runs hides it in medians; pairing each change
// run with the parent run next to it, and asking how often the change
// won, does not.
//
// For every batch and end-to-end metric it prints the parent and change
// medians, the median of the per-pair ratios change/parent with a 95%
// bootstrap interval over pairs, the pairs the change won (in the
// metric's better direction, from BENCHMARK.json) and a two-sided sign
// test p-value. For peak_mem_mb it also splits the runs into a low and
// a high mode when their values fall in two clusters, and compares the
// runs of the upper mode.
//
// With -kernel it reads the rounds `make benchdiff` writes instead
// (round<N>-parent.txt, round<N>-change.txt: `go test -bench` text) as
// one batch per benchmark with the metric ns/op, and gates them.
//
// Usage:
//
//	benchpair [-ledger BENCH_e2e.json] [-benchmark BENCHMARK.json] [-change 46a2c22]
//	benchpair -kernel .bench_build/benchdiff
//
// A batch is a maximal run of paired rows of one workload whose parent
// and change commits stay the same and whose pair numbers do not
// repeat; rows without pair and side fields are skipped.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// row is one ledger line.
type row struct {
	Commit   string `json:"commit"`
	Workload string `json:"workload"`
	Pair     int    `json:"pair"`
	Side     string `json:"side"`
	Result   struct {
		Metrics map[string]value `json:"metrics"`
	} `json:"result"`
}

// value is one metric of a ledger row.
type value struct {
	Value float64 `json:"value"`
}

// batch is one set of alternating runs of a workload: the parent and
// change row of each pair number.
type batch struct {
	workload string
	commits  [2]string // parent, change
	pairs    map[int][2]*row
}

// sides indexes a pair's rows.
var sides = map[string]int{"parent": 0, "change": 1}

// batcher groups paired rows into batches, in the order their first
// rows appear.
type batcher struct {
	out  []*batch
	open map[string]*batch // the current batch of each workload
}

// add files one row; a row without a pair number or side is skipped.
func (bt *batcher) add(rw *row) {
	s, ok := sides[rw.Side]
	if !ok || rw.Pair == 0 {
		return
	}
	b := bt.open[rw.Workload]
	if b == nil || b.pairs[rw.Pair][s] != nil || (b.commits[s] != "" && b.commits[s] != rw.Commit) {
		b = &batch{workload: rw.Workload, pairs: make(map[int][2]*row)}
		bt.open[rw.Workload] = b
		bt.out = append(bt.out, b)
	}
	b.commits[s] = rw.Commit
	p := b.pairs[rw.Pair]
	p[s] = rw
	b.pairs[rw.Pair] = p
}

// readBatches groups the ledger's paired rows into batches.
func readBatches(r io.Reader) ([]*batch, error) {
	bt := batcher{open: make(map[string]*batch)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		rw := new(row)
		if err := json.Unmarshal(sc.Bytes(), rw); err != nil {
			return nil, fmt.Errorf("ledger line %d: %v", line, err)
		}
		bt.add(rw)
	}
	return bt.out, sc.Err()
}

// metric is one end-to-end metric of BENCHMARK.json.
type metric struct {
	Name   string `json:"name"`
	Better string `json:"better"`
}

// readMetrics returns the benchmark's end-to-end metrics.
func readMetrics(path string) ([]metric, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []metric `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return spec.EndToEnd, nil
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// signTest returns the two-sided sign-test p-value of k wins in n
// untied pairs: twice the binomial tail of the rarer outcome.
func signTest(k, n int) float64 {
	if n == 0 {
		return 1
	}
	lo := min(k, n-k)
	tail := 0.0
	for i := 0; i <= lo; i++ {
		tail += binom(n, i)
	}
	return math.Min(1, 2*tail/math.Pow(2, float64(n)))
}

// binom returns n choose k.
func binom(n, k int) float64 {
	c := 1.0
	for i := 1; i <= k; i++ {
		c = c * float64(n-k+i) / float64(i)
	}
	return c
}

// bootstrap returns the 95% percentile interval of the median of xs
// over resamples with replacement, from a fixed seed so the report is
// reproducible.
func bootstrap(xs []float64) (lo, hi float64) {
	const resamples = 2000
	rng := rand.New(rand.NewPCG(1, 2))
	meds := make([]float64, resamples)
	s := make([]float64, len(xs))
	for i := range meds {
		for j := range s {
			s[j] = xs[rng.IntN(len(xs))]
		}
		meds[i] = median(s)
	}
	sort.Float64s(meds)
	return meds[resamples*25/1000], meds[resamples*975/1000-1]
}

// modeSplit looks for two clusters in vs. It splits the sorted values
// where the two parts' summed squared deviations are least (Otsu's
// rule in one dimension) and returns the midpoint of the split when
// the split explains at least 85% of the variance — a uniform spread
// explains 75%, a normal one 64% — and the two parts' medians lie at
// least 3% apart. It returns false for one cluster.
func modeSplit(vs []float64) (float64, bool) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s) < 4 {
		return 0, false
	}
	ss := func(xs []float64) float64 {
		mean := 0.0
		for _, x := range xs {
			mean += x
		}
		mean /= float64(len(xs))
		d := 0.0
		for _, x := range xs {
			d += (x - mean) * (x - mean)
		}
		return d
	}
	total := ss(s)
	if total == 0 {
		return 0, false
	}
	best, at := math.Inf(1), 0
	for i := 2; i <= len(s)-2; i++ {
		if w := ss(s[:i]) + ss(s[i:]); w < best {
			best, at = w, i
		}
	}
	lo, hi := median(s[:at]), median(s[at:])
	if 1-best/total < 0.85 || hi-lo < 0.03*hi {
		return 0, false
	}
	return (s[at-1] + s[at]) / 2, true
}

// complete returns the sorted numbers of the batch's pairs that have
// both a parent and a change row.
func (b *batch) complete() []int {
	nums := make([]int, 0, len(b.pairs))
	for n, p := range b.pairs {
		if p[0] != nil && p[1] != nil {
			nums = append(nums, n)
		}
	}
	sort.Ints(nums)
	return nums
}

// pairStats returns metric m's parent and change values over the
// batch's complete pairs, the per-pair ratios change/parent, and how
// many pairs the change won and tied. Pairs without the metric, or
// with a zero parent value, are left out.
func (b *batch) pairStats(m metric) (par, chg, ratio []float64, wins, ties int) {
	for _, n := range b.complete() {
		pv, pok := b.pairs[n][0].Result.Metrics[m.Name]
		cv, cok := b.pairs[n][1].Result.Metrics[m.Name]
		if !pok || !cok || pv.Value == 0 {
			continue
		}
		par, chg = append(par, pv.Value), append(chg, cv.Value)
		ratio = append(ratio, cv.Value/pv.Value)
		switch {
		case cv.Value == pv.Value:
			ties++
		case (cv.Value > pv.Value) == (m.Better == "higher"):
			wins++
		}
	}
	return par, chg, ratio, wins, ties
}

// report prints one batch.
func report(w io.Writer, b *batch, metrics []metric) {
	nums := b.complete()
	fmt.Fprintf(w, "%s: %s -> %s, %d pairs\n", b.workload, b.commits[0], b.commits[1], len(nums))
	if len(nums) == 0 {
		return
	}
	for _, m := range metrics {
		par, chg, ratio, wins, ties := b.pairStats(m)
		if len(ratio) == 0 {
			continue
		}
		lo, hi := bootstrap(ratio)
		fmt.Fprintf(w, "  %-12s %10.4g -> %-10.4g ratio %.3f [%.3f, %.3f]  change better %d/%d  sign p=%.3g\n",
			m.Name, median(par), median(chg), median(ratio), lo, hi, wins, len(ratio), signTest(wins, len(ratio)-ties))
		if m.Name == "peak_mem_mb" {
			reportModes(w, par, chg)
		}
	}
}

// reportModes prints the low/high split of a bimodal peak-memory batch
// and the upper mode's medians.
func reportModes(w io.Writer, par, chg []float64) {
	cut, ok := modeSplit(append(append([]float64(nil), par...), chg...))
	if !ok {
		fmt.Fprintf(w, "  %-12s one mode\n", "")
		return
	}
	var up [2][]float64
	var low [2]int
	for s, vs := range [2][]float64{par, chg} {
		for _, v := range vs {
			if v > cut {
				up[s] = append(up[s], v)
			} else {
				low[s]++
			}
		}
	}
	fmt.Fprintf(w, "  %-12s two modes split at %.4g: parent %d low/%d high, change %d low/%d high; upper-mode medians %s -> %s\n",
		"", cut, low[0], len(up[0]), low[1], len(up[1]), medianText(up[0]), medianText(up[1]))
}

// medianText formats the median of xs, or "-" when xs is empty.
func medianText(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	return fmt.Sprintf("%.4g", median(xs))
}

// The kernel gate: the benchmarks it holds, and the largest median
// paired ns/op ratio change/parent it passes. The other kernel
// benchmarks take under a microsecond per op, too little to gate on.
var kernelRequired = []string{"KernelAllreduce512", "KernelBcast512", "KernelSharded/shards=1"}

const kernelBound = 1.10

// nsPerOp is the one metric of a kernel round.
var nsPerOp = metric{Name: "ns/op", Better: "lower"}

// benchLine matches a result line of `go test -bench` text output,
// `BenchmarkName-8   50   123456 ns/op ...`, capturing the name
// without its prefix and GOMAXPROCS suffix, and the ns/op.
var benchLine = regexp.MustCompile(`(?m)^Benchmark(\S+?)(?:-\d+)?\s+\d+\s+(\d+(?:\.\d+)?) ns/op`)

// benchRows returns one row per result line of a kernel round's text
// output: the benchmark as workload, the round as pair, and ns/op.
func benchRows(text []byte, round int, side string) []*row {
	var rows []*row
	for _, m := range benchLine.FindAllSubmatch(text, -1) {
		rw := &row{Commit: side, Workload: string(m[1]), Pair: round, Side: side}
		ns, _ := strconv.ParseFloat(string(m[2]), 64) // benchLine admits only decimals
		rw.Result.Metrics = map[string]value{nsPerOp.Name: {ns}}
		rows = append(rows, rw)
	}
	return rows
}

// roundFile names one side's output of one kernel round.
var roundFile = regexp.MustCompile(`^round(\d+)-(parent|change)\.txt$`)

// readRounds reads the kernel rounds in dir as batches, one per
// benchmark, and returns how many rounds there are.
func readRounds(dir string) ([]*batch, int, error) {
	files, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, err
	}
	bt := batcher{open: make(map[string]*batch)}
	rounds := make(map[int]bool)
	for _, f := range files {
		m := roundFile.FindStringSubmatch(f.Name())
		if m == nil {
			continue
		}
		text, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			return nil, 0, err
		}
		n, _ := strconv.Atoi(m[1])
		rounds[n] = true
		for _, rw := range benchRows(text, n, m[2]) {
			bt.add(rw)
		}
	}
	if len(rounds) == 0 {
		return nil, 0, fmt.Errorf("%s: no round<N>-parent.txt or round<N>-change.txt files", dir)
	}
	return bt.out, len(rounds), nil
}

// gate prints a verdict on each required benchmark and reports whether
// all pass: each must have both runs in every round and a median
// paired ratio of at most kernelBound.
func gate(w io.Writer, batches []*batch, rounds int) bool {
	pass := true
	for _, name := range kernelRequired {
		var ratio []float64
		if i := slices.IndexFunc(batches, func(b *batch) bool { return b.workload == name }); i >= 0 {
			_, _, ratio, _, _ = batches[i].pairStats(nsPerOp)
		}
		verdict := "ok"
		if len(ratio) < rounds || median(ratio) > kernelBound {
			verdict, pass = "FAIL", false
		}
		fmt.Fprintf(w, "gate: %s: %d of %d rounds, median paired ratio %.3f (bound %.2f): %s\n",
			name, len(ratio), rounds, median(ratio), kernelBound, verdict)
	}
	return pass
}

// check exits with status 2 on an error reading the input.
func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(2)
	}
}

func main() {
	ledger := flag.String("ledger", "BENCH_e2e.json", "end-to-end ledger, one JSON object per line")
	bench := flag.String("benchmark", "BENCHMARK.json", "benchmark declaration naming the end-to-end metrics")
	change := flag.String("change", "", "report only batches whose change commit starts with this")
	kernel := flag.String("kernel", "", "directory of kernel benchmark rounds (round<N>-parent.txt, round<N>-change.txt) "+
		"to report and gate instead of the ledger")
	flag.Parse()
	if *kernel != "" {
		batches, rounds, err := readRounds(*kernel)
		check(err)
		for _, b := range batches {
			report(os.Stdout, b, []metric{nsPerOp})
		}
		if !gate(os.Stdout, batches, rounds) {
			os.Exit(1)
		}
		return
	}
	metrics, err := readMetrics(*bench)
	check(err)
	f, err := os.Open(*ledger)
	check(err)
	defer f.Close()
	batches, err := readBatches(f)
	check(err)
	for _, b := range batches {
		if strings.HasPrefix(b.commits[1], *change) {
			report(os.Stdout, b, metrics)
		}
	}
}
