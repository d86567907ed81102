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
// Usage:
//
//	benchpair [-ledger BENCH_e2e.json] [-benchmark BENCHMARK.json] [-change 46a2c22]
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
	"sort"
	"strings"
)

// row is one ledger line.
type row struct {
	Commit   string `json:"commit"`
	Workload string `json:"workload"`
	Pair     int    `json:"pair"`
	Side     string `json:"side"`
	Result   struct {
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"result"`
}

// batch is one set of alternating runs of a workload: the parent and
// change row of each pair number.
type batch struct {
	workload string
	commits  [2]string // parent, change
	pairs    map[int][2]*row
}

// side indexes a pair's rows.
func side(s string) (int, bool) {
	switch s {
	case "parent":
		return 0, true
	case "change":
		return 1, true
	}
	return 0, false
}

// readBatches groups the ledger's paired rows into batches, in the
// order their first rows appear.
func readBatches(r io.Reader) ([]*batch, error) {
	var out []*batch
	open := make(map[string]*batch) // the current batch of each workload
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var rw row
		if err := json.Unmarshal(sc.Bytes(), &rw); err != nil {
			return nil, fmt.Errorf("ledger line %d: %v", line, err)
		}
		s, ok := side(rw.Side)
		if !ok || rw.Pair == 0 {
			continue
		}
		b := open[rw.Workload]
		if b == nil || b.pairs[rw.Pair][s] != nil || (b.commits[s] != "" && b.commits[s] != rw.Commit) {
			b = &batch{workload: rw.Workload, pairs: make(map[int][2]*row)}
			open[rw.Workload] = b
			out = append(out, b)
		}
		b.commits[s] = rw.Commit
		p := b.pairs[rw.Pair]
		p[s] = &rw
		b.pairs[rw.Pair] = p
	}
	return out, sc.Err()
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

// report prints one batch.
func report(w io.Writer, b *batch, metrics []metric) {
	nums := make([]int, 0, len(b.pairs))
	for n, p := range b.pairs {
		if p[0] != nil && p[1] != nil {
			nums = append(nums, n)
		}
	}
	sort.Ints(nums)
	fmt.Fprintf(w, "%s: %s -> %s, %d pairs\n", b.workload, b.commits[0], b.commits[1], len(nums))
	if len(nums) == 0 {
		return
	}
	for _, m := range metrics {
		var par, chg, ratio []float64
		wins, ties := 0, 0
		for _, n := range nums {
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

func main() {
	ledger := flag.String("ledger", "BENCH_e2e.json", "end-to-end ledger, one JSON object per line")
	bench := flag.String("benchmark", "BENCHMARK.json", "benchmark declaration naming the end-to-end metrics")
	change := flag.String("change", "", "report only batches whose change commit starts with this")
	flag.Parse()
	metrics, err := readMetrics(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(2)
	}
	f, err := os.Open(*ledger)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(2)
	}
	defer f.Close()
	batches, err := readBatches(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(2)
	}
	for _, b := range batches {
		if strings.HasPrefix(b.commits[1], *change) {
			report(os.Stdout, b, metrics)
		}
	}
}
