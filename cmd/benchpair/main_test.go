package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// ledgerRow renders one paired ledger line.
func ledgerRow(commit, workload, side string, pair int, jobs float64) string {
	return fmt.Sprintf(`{"commit":%q,"workload":%q,"pair":%d,"side":%q,"result":{"metrics":{"jobs_per_s":{"value":%g}}}}`,
		commit, workload, pair, side, jobs)
}

func TestReadBatchesSplitsOnRepeatAndCommit(t *testing.T) {
	lines := []string{
		`{"commit":"a","workload":"w","result":{}}`, // unpaired: skipped
		ledgerRow("p", "w", "parent", 1, 10),
		ledgerRow("c", "w", "change", 1, 11),
		ledgerRow("c", "w", "change", 2, 12),
		ledgerRow("p", "w", "parent", 2, 10),
		ledgerRow("p", "v", "parent", 1, 5), // another workload interleaved
		ledgerRow("p", "w", "parent", 1, 9), // pair 1 repeats: a new batch
		ledgerRow("c", "w", "change", 1, 8),
		ledgerRow("d", "w", "change", 2, 8), // another change commit: a new batch
	}
	bs, err := readBatches(strings.NewReader(strings.Join(lines, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, b := range bs {
		got = append(got, fmt.Sprintf("%s %s->%s %d", b.workload, b.commits[0], b.commits[1], len(b.pairs)))
	}
	want := "w p->c 2|v p-> 1|w p->c 1|w ->d 1"
	if strings.Join(got, "|") != want {
		t.Fatalf("batches %q, want %q", strings.Join(got, "|"), want)
	}
}

func TestSignTest(t *testing.T) {
	for _, c := range []struct {
		k, n int
		p    float64
	}{
		{10, 10, 2.0 / 1024},
		{9, 10, 22.0 / 1024},
		{5, 10, 1},
		{0, 0, 1},
	} {
		if got := signTest(c.k, c.n); math.Abs(got-c.p) > 1e-12 {
			t.Errorf("signTest(%d, %d) = %g, want %g", c.k, c.n, got, c.p)
		}
	}
}

func TestModeSplit(t *testing.T) {
	if cut, ok := modeSplit([]float64{890, 905, 912, 965, 975, 978, 980, 1010}); !ok || cut < 912 || cut > 965 {
		t.Errorf("bimodal peaks: split %v at %g, want one between 912 and 965", ok, cut)
	}
	if _, ok := modeSplit([]float64{25.5, 25.7, 25.9, 26.0, 26.1, 26.3, 26.6}); ok {
		t.Error("one spread cluster was split")
	}
}

func TestBenchRows(t *testing.T) {
	text := `goos: linux
pkg: bgpsim/internal/sim
BenchmarkKernelChurn/fastpath-deep-2         	 9816931	       121.5 ns/op	       0 B/op	       0 allocs/op
BenchmarkKernelAllreduce512-2                	     874	   1472143 ns/op	    695585 events/s	  447766 B/op	    7786 allocs/op
BenchmarkKernelSharded/shards=1-2            	      44	  26781013.5 ns/op
BenchmarkKernelPingPong	 1000000	       340 ns/op
--- FAIL: BenchmarkKernelBcast512-2
PASS
`
	var got []string
	for _, rw := range benchRows([]byte(text), 3, "change") {
		got = append(got, fmt.Sprintf("%s %d %s %s %g", rw.Workload, rw.Pair, rw.Side, rw.Commit, rw.Result.Metrics["ns/op"].Value))
	}
	want := "KernelChurn/fastpath-deep 3 change change 121.5|KernelAllreduce512 3 change change 1.472143e+06|" +
		"KernelSharded/shards=1 3 change change 2.67810135e+07|KernelPingPong 3 change change 340"
	if strings.Join(got, "|") != want {
		t.Errorf("benchRows = %q, want %q", strings.Join(got, "|"), want)
	}
}

// writeRounds writes five kernel rounds into a new directory. Every
// benchmark takes base ns/op on the parent side; on the change side
// slow scales it, with round-to-round noise of up to ±2% on both
// sides. skip names a benchmark the change side of round 3 lacks.
func writeRounds(t *testing.T, slow map[string]float64, skip string) string {
	t.Helper()
	base := []struct {
		name string
		ns   float64
	}{
		{"KernelAllreduce512", 1.5e6},
		{"KernelBcast512", 3.5e6},
		{"KernelSharded/shards=1", 2.7e7},
		{"KernelSharded/shards=2", 2.4e7},
		{"KernelPingPong", 340},
	}
	dir := t.TempDir()
	for r := 1; r <= 5; r++ {
		noise := 1 + 0.01*float64(r%3-1)
		for _, s := range []string{"parent", "change"} {
			var b strings.Builder
			for _, bm := range base {
				name, ns := bm.name, bm.ns
				if s == "change" {
					if name == skip && r == 3 {
						continue
					}
					if f, ok := slow[name]; ok {
						ns *= f
					}
					ns *= 2 - noise
				} else {
					ns *= noise
				}
				fmt.Fprintf(&b, "Benchmark%s-2   \t 100\t %.1f ns/op\t 10 B/op\n", name, ns)
			}
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("round%d-%s.txt", r, s)), []byte(b.String()), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	return dir
}

func TestKernelGate(t *testing.T) {
	for _, c := range []struct {
		name string
		slow map[string]float64
		skip string
		pass bool
	}{
		{"no change", nil, "", true},
		{"required 5% slower", map[string]float64{"KernelBcast512": 1.05}, "", true},
		{"required 15% slower", map[string]float64{"KernelAllreduce512": 1.15}, "", false},
		{"sharded 15% slower", map[string]float64{"KernelSharded/shards=1": 1.15}, "", false},
		{"required missing from a round", nil, "KernelSharded/shards=1", false},
		{"unrequired 50% slower", map[string]float64{"KernelPingPong": 1.5, "KernelSharded/shards=2": 1.5}, "", true},
		{"unrequired missing from a round", nil, "KernelPingPong", true},
	} {
		t.Run(c.name, func(t *testing.T) {
			batches, rounds, err := readRounds(writeRounds(t, c.slow, c.skip))
			if err != nil {
				t.Fatal(err)
			}
			if len(batches) != 5 || rounds != 5 {
				t.Fatalf("read %d benchmarks over %d rounds, want 5 and 5", len(batches), rounds)
			}
			var out strings.Builder
			if got := gate(&out, batches, rounds); got != c.pass {
				t.Errorf("gate passed %v, want %v:\n%s", got, c.pass, out.String())
			}
		})
	}
}

func TestKernelReport(t *testing.T) {
	batches, _, err := readRounds(writeRounds(t, map[string]float64{"KernelAllreduce512": 1.15}, ""))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	report(&out, batches[0], []metric{nsPerOp})
	want := "KernelAllreduce512: parent -> change, 5 pairs\n  ns/op           1.5e+06 -> 1.725e+06  ratio 1.150"
	if !strings.HasPrefix(out.String(), want) {
		t.Errorf("report:\n%s\nwant it to start with\n%s", out.String(), want)
	}
}

func TestReadRoundsEmpty(t *testing.T) {
	if _, _, err := readRounds(t.TempDir()); err == nil {
		t.Error("an empty directory read as kernel rounds")
	}
}
