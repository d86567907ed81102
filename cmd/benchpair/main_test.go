package main

import (
	"fmt"
	"math"
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
