package jobspec

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateEventsGolden = flag.Bool("update-events-golden", false, "rewrite testdata/events_golden.txt from the current output")

// eventsGoldenSpecs are bench jobs with the -events dump on, chosen to
// print every line shape trace.Buffer.Dump has: point-to-point sends,
// posts and matches, collective spans with their algorithm, the
// rank-restart / p2p-replay / p2p-orphan fault marks, and the
// "(N events dropped)" trailer of an overflowing buffer.
func eventsGoldenSpecs() []struct {
	name string
	spec Spec
} {
	b := func(n int) *int { return &n }
	return []struct {
		name string
		spec Spec
	}{
		{"bgp-allreduce-16", Spec{Kind: KindBench, Machine: "BG/P", Ranks: 16, Bench: "allreduce", Events: 1000}},
		{"xt4qc-bcast-rendezvous", Spec{Kind: KindBench, Machine: "XT4/QC", Ranks: 16, Bench: "bcast", Bytes: b(65536), Events: 1000}},
		{"restart-replay", Spec{Kind: KindBench, Ranks: 16, Bench: "pingpong", Bytes: b(64), Fidelity: "analytic",
			Faults: "recover,log=sender,restart=ckpt,kill=2@3us", Events: 1000}},
		{"cancel-orphan", Spec{Kind: KindBench, Ranks: 16, Bench: "pingpong", Bytes: b(64), Fidelity: "analytic",
			Faults: "recover,log=sender,kill=2@1us", Events: 1000}},
		{"overflow", Spec{Kind: KindBench, Machine: "XT4/QC", Ranks: 16, Bench: "allreduce", Fidelity: "analytic", Events: 40}},
	}
}

// TestEventsDumpGolden pins the bytes of the -events text dump of real
// runs, serial and sharded: the trace buffer is fed from the probe
// stream, and this is the test that notices when that feed reorders,
// drops, or relabels an event. Regenerate deliberately with
// `go test ./internal/jobspec -run EventsDumpGolden -update-events-golden`.
func TestEventsDumpGolden(t *testing.T) {
	var got bytes.Buffer
	for _, c := range eventsGoldenSpecs() {
		var out, errb bytes.Buffer
		if _, err := Run(c.spec, &out, &errb); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fmt.Fprintf(&got, "== %s\n%s", c.name, out.Bytes())
		if c.spec.Fidelity != "analytic" {
			continue
		}
		for _, n := range []int{1, 2, 4} {
			s := c.spec
			s.Shards = n
			var sout, serr bytes.Buffer
			if _, err := Run(s, &sout, &serr); err != nil {
				t.Fatalf("%s shards %d: %v", c.name, n, err)
			}
			if !bytes.Equal(sout.Bytes(), out.Bytes()) {
				t.Errorf("%s: shards %d dump differs from serial:\n%s\nserial:\n%s", c.name, n, sout.Bytes(), out.Bytes())
			}
		}
	}
	path := filepath.Join("testdata", "events_golden.txt")
	if *updateEventsGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-events-golden to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("-events dump drifted from %s (%d vs %d bytes):\n%s", path, got.Len(), len(want), got.Bytes())
	}
}
