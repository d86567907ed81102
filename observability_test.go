package bgpsim_test

// Observability contract tests: dropped trace events are surfaced, the
// Chrome trace export of a pinned run is byte-stable, and probed runs
// on the worker pool render identical profile tables at any -j (the
// test matters most under -race, where it also proves recorders on
// different sweep points share no state).

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bgpsim"
	"bgpsim/internal/fault"
	"bgpsim/internal/halo"
	"bgpsim/internal/machine"
	"bgpsim/internal/mpi"
	"bgpsim/internal/runner"
	"bgpsim/internal/sim"
	"bgpsim/internal/topology"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

func TestTraceBufferOverflowSurfaced(t *testing.T) {
	const cap = 4
	tb := bgpsim.NewTraceBuffer(cap)
	cfg := bgpsim.NewSystem(bgpsim.BGP, bgpsim.VN, 16, bgpsim.WithTrace(tb))
	res, err := bgpsim.Run(cfg, func(r *bgpsim.Rank) {
		right := (r.ID() + 1) % r.Size()
		left := (r.ID() - 1 + r.Size()) % r.Size()
		for k := 0; k < 4; k++ {
			r.Sendrecv(right, 1024, k, left, k)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if tb.Len() != cap {
		t.Errorf("buffer holds %d events, want the cap %d", tb.Len(), cap)
	}
	if tb.Dropped() == 0 {
		t.Error("no dropped events counted on an overflowing buffer")
	}
	if res.DroppedEvents() != tb.Dropped() {
		t.Errorf("Result surfaces %d dropped events, buffer counted %d",
			res.DroppedEvents(), tb.Dropped())
	}

	// A large enough buffer drops nothing, and the Result says so.
	tb2 := bgpsim.NewTraceBuffer(1 << 16)
	cfg2 := bgpsim.NewSystem(bgpsim.BGP, bgpsim.VN, 16, bgpsim.WithTrace(tb2))
	res2, err := bgpsim.Run(cfg2, func(r *bgpsim.Rank) { r.World().Barrier(r) })
	if err != nil {
		t.Fatal(err)
	}
	if res2.DroppedEvents() != 0 {
		t.Errorf("dropped = %d on an unconstrained buffer", res2.DroppedEvents())
	}
}

// pinnedHalo runs the golden observability workload: an 8-rank HALO
// exchange on BG/P with a fresh recorder attached.
func pinnedHalo() (*bgpsim.Recorder, error) {
	rec := bgpsim.NewRecorder()
	_, _, err := halo.RunResult(halo.Options{
		Machine: machine.BGP, Mode: machine.VN,
		GridX: 4, GridY: 2,
		Mapping: topology.MapTXYZ, Protocol: halo.IsendIrecv,
		Words: 2048, Iterations: 2,
		Probe: rec,
	})
	return rec, err
}

func TestChromeTraceGolden(t *testing.T) {
	rec, err := pinnedHalo()
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := rec.WriteChromeTrace(&got); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "halo8.trace.json")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run ChromeTraceGolden -update .` to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("Chrome trace drifted from %s (%d vs %d bytes); if the change is intended, regenerate with -update",
			path, got.Len(), len(want))
	}
}

// profileTables runs `n` independent probed halo simulations on the
// runner pool at the given worker count and renders each one's profile
// table and critical-path summary.
func profileTables(t *testing.T, n, workers int) []string {
	t.Helper()
	defer runner.SetWorkers(0)
	runner.SetWorkers(workers)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	out, err := runner.Sweep(idx, func(i int) (string, error) {
		rec, err := pinnedHalo()
		if err != nil {
			return "", err
		}
		var b strings.Builder
		if err := rec.Profile().WriteTable(&b); err != nil {
			return "", err
		}
		if err := rec.CriticalPath().WriteSummary(&b); err != nil {
			return "", err
		}
		return b.String(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// pinnedHaloFault is pinnedHalo with node 1 (ranks 4-7 in VN mode)
// killed mid-run and no recovery enabled: the run aborts with
// *mpi.RankFailure, and the recorder keeps everything observed up to
// the abort.
func pinnedHaloFault() (*bgpsim.Recorder, error) {
	plan := fault.NewPlan(7)
	plan.KillNode(1, sim.Time(40*sim.Microsecond))
	rec := bgpsim.NewRecorder()
	_, _, err := halo.RunResult(halo.Options{
		Machine: machine.BGP, Mode: machine.VN,
		GridX: 4, GridY: 2,
		Mapping: topology.MapTXYZ, Protocol: halo.IsendIrecv,
		Words: 2048, Iterations: 2,
		Faults: plan,
		Probe:  rec,
	})
	return rec, err
}

// TestFaultTraceGolden pins the observability output of an aborted
// run: the Chrome trace of the pinned HALO workload with an injected
// node loss is byte-stable, the abort surfaces as *mpi.RankFailure,
// and the critical-path buckets still tile the truncated run exactly.
func TestFaultTraceGolden(t *testing.T) {
	rec, err := pinnedHaloFault()
	var rf *mpi.RankFailure
	if !errors.As(err, &rf) {
		t.Fatalf("err = %v (%T), want *mpi.RankFailure", err, err)
	}
	var got bytes.Buffer
	if err := rec.WriteChromeTrace(&got); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "halo8_fault.trace.json")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run FaultTraceGolden -update .` to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("fault trace drifted from %s (%d vs %d bytes); if the change is intended, regenerate with -update",
			path, got.Len(), len(want))
	}

	cp := rec.CriticalPath()
	if cp.Total <= 0 {
		t.Fatal("critical path of the aborted run is empty")
	}
	if sum := cp.Compute + cp.P2PWait + cp.CollWait + cp.Other; sum != cp.Total {
		t.Errorf("critical-path buckets sum to %v, want %v (must tile exactly)", sum, cp.Total)
	}
}

func TestProfileTablesWorkerInvariance(t *testing.T) {
	serial := profileTables(t, 4, 1)
	parallel := profileTables(t, 4, 4)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("probed run %d renders differently at -j 1 and -j 4:\n-- j1 --\n%s\n-- j4 --\n%s",
				i, serial[i], parallel[i])
		}
		if i > 0 && serial[i] != serial[0] {
			t.Fatalf("identical probed runs %d and 0 differ:\n%s\nvs\n%s", i, serial[i], serial[0])
		}
	}
}

// TestTraceAndProfileTogether: a trace buffer and a recorder on one run
// each see exactly what they see alone — the trace the same events as
// a trace-only run, the recorder the same Chrome trace bytes as a
// profile-only run — and Result.Recorder still returns the recorder.
// Checked on the serial kernel and at two shards.
func TestTraceAndProfileTogether(t *testing.T) {
	prog := func(r *bgpsim.Rank) {
		right := (r.ID() + 1) % r.Size()
		left := (r.ID() - 1 + r.Size()) % r.Size()
		for k := 0; k < 3; k++ {
			r.Compute(1e6, 1e4, bgpsim.ClassDGEMM)
			r.Sendrecv(right, 4096, k, left, k)
			r.World().Allreduce(r, 64, true)
		}
	}
	run := func(shards int, tb *bgpsim.TraceBuffer, rec *bgpsim.Recorder) *bgpsim.Result {
		t.Helper()
		var opts []bgpsim.Option
		if tb != nil {
			opts = append(opts, bgpsim.WithTrace(tb))
		}
		if rec != nil {
			opts = append(opts, bgpsim.WithProfile(rec))
		}
		cfg := bgpsim.NewSystem(bgpsim.BGP, bgpsim.VN, 32, append(opts, bgpsim.WithFidelity(bgpsim.Analytic))...)
		cfg.Shards = shards
		res, err := bgpsim.Run(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		if want := max(shards, 1); res.Shards != want {
			t.Fatalf("ran on %d shards, want %d", res.Shards, want)
		}
		return res
	}
	dump := func(tb *bgpsim.TraceBuffer) string {
		var b strings.Builder
		if err := tb.Dump(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	chrome := func(rec *bgpsim.Recorder) []byte {
		var b bytes.Buffer
		if err := rec.WriteChromeTrace(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	for _, shards := range []int{0, 2} {
		tb, rec := bgpsim.NewTraceBuffer(0), bgpsim.NewRecorder()
		res := run(shards, tb, rec)
		if res.Recorder() != rec {
			t.Errorf("shards=%d: Result.Recorder() = %p, want the attached recorder %p", shards, res.Recorder(), rec)
		}
		tbAlone := bgpsim.NewTraceBuffer(0)
		run(shards, tbAlone, nil)
		if got, want := dump(tb), dump(tbAlone); got != want {
			t.Errorf("shards=%d: trace with a recorder attached differs from a trace-only run:\n%s\nalone:\n%s", shards, got, want)
		}
		if tb.Len() == 0 {
			t.Errorf("shards=%d: trace recorded nothing", shards)
		}
		recAlone := bgpsim.NewRecorder()
		run(shards, nil, recAlone)
		if got, want := chrome(rec), chrome(recAlone); !bytes.Equal(got, want) {
			t.Errorf("shards=%d: Chrome trace with a trace buffer attached differs from a profile-only run (%d vs %d bytes)", shards, len(got), len(want))
		}
	}
}
