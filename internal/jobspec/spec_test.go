package jobspec

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"bgpsim/internal/machine"
	"bgpsim/internal/mpi"
	"bgpsim/internal/sim"
)

// TestHashGolden pins the content hash of each kind's default job.
// These constants are the cache identities the bgpsimd server hands
// out; if this test fails, canonicalization changed and every stored
// result in the field silently invalidates. Change them knowingly and
// bump the spec Version when the format itself moves.
func TestHashGolden(t *testing.T) {
	golden := map[string]string{
		KindBench:    "bcf85b722a3892a08f6196d11a3e347f60de39d6fb47d4f2e4fdaff750078092",
		KindHalo:     "93281e10ee2c12d28ad66e395b1405015cf2e848275712a9818a44544b415e6c",
		KindHPCC:     "75397f5ca3b36581471a9a99c3f72e0340da4a1e7e9839dc9732cffdd755c702",
		KindFacility: "454a7e23948eb08199b917f5ced2323a6eafcdd834abcecaa8fc59d40f34c1e7",
		KindCalib:    "e6b7b0f0512707338a08088ab238c0237032a89b6ccf08fa5b2661539d2bce90",
	}
	for kind, want := range golden {
		if got := (Spec{Kind: kind}).Hash(); got != want {
			t.Errorf("%s: hash %s, want %s (canonical %s)", kind, got, want, Spec{Kind: kind}.CanonicalJSON())
		}
	}
}

// TestHashIgnoresExecutionKnobs: the hash names the job, not how it is
// executed — shard count must not perturb it, and the canonical form
// of an explicitly-defaulted spec must equal the blank spec's.
func TestHashIgnoresExecutionKnobs(t *testing.T) {
	base := Spec{Kind: KindBench}
	if h := (Spec{Kind: KindBench, Shards: 8}).Hash(); h != base.Hash() {
		t.Errorf("shards changed the hash: %s vs %s", h, base.Hash())
	}
	eight := 8
	explicit := Spec{Kind: KindBench, Machine: "BG/P", Mode: "VN", Ranks: 256,
		Bench: "allreduce", Bytes: &eight, Mapping: "XYZT", Fidelity: "contention"}
	if explicit.Hash() != base.Hash() {
		t.Errorf("explicit defaults changed the hash:\n%s\n%s", explicit.CanonicalJSON(), base.CanonicalJSON())
	}
	// Explicit zero bytes is a different job (zero-payload pingpong
	// measures pure latency), not a default.
	zero := 0
	if h := (Spec{Kind: KindBench, Bytes: &zero}).Hash(); h == base.Hash() {
		t.Error("explicit -bytes 0 hashed identically to the 8-byte default")
	}
}

// TestHashVariability: a variability spec changes the job's identity —
// a run under per-node noise is a different result than a healthy run
// and must not share a cache slot with it.
func TestHashVariability(t *testing.T) {
	for _, kind := range []string{KindBench, KindHalo, KindHPCC} {
		base := Spec{Kind: kind}
		noisy := Spec{Kind: kind, Var: "clock:2%,link:5%@7"}
		if noisy.Hash() == base.Hash() {
			t.Errorf("%s: variability spec did not change the hash (canonical %s)", kind, noisy.CanonicalJSON())
		}
		// Different seed, different draws, different job.
		other := Spec{Kind: kind, Var: "clock:2%,link:5%@8"}
		if other.Hash() == noisy.Hash() {
			t.Errorf("%s: variability seed did not change the hash", kind)
		}
	}
}

// TestDecodeRoundTrip: canonical JSON decodes back to a spec with the
// same canonical bytes, for every kind.
func TestDecodeRoundTrip(t *testing.T) {
	specs := []Spec{
		{Kind: KindBench, Bench: "pingpong", Faults: "kill=2@1ms,recover"},
		{Kind: KindHalo, Sweep: true, Coll: map[string]string{"allreduce": "ring"}},
		{Kind: KindHPCC, RankList: []int{64, 256}},
		{Kind: KindFacility, Workload: "seed=3,nodes=64,jobs=4,cohort=halo:4:1:10s:100:cancel"},
		{Kind: KindCalib, Machine: "XT4/QC"},
		{Kind: KindBench, Bench: "pingpong", Var: "clock:2%,link:5%@7"},
	}
	for _, s := range specs {
		cj := s.CanonicalJSON()
		got, err := Decode(cj)
		if err != nil {
			t.Fatalf("%s: decode canonical: %v", s.Kind, err)
		}
		if !bytes.Equal(got.CanonicalJSON(), cj) {
			t.Errorf("%s: round trip changed canonical form:\n in: %s\nout: %s", s.Kind, cj, got.CanonicalJSON())
		}
	}
}

func TestDecodeRejects(t *testing.T) {
	cases := []string{
		`{"kind":"bench","bogus":1}`,                // unknown field
		`{"kind":"bench","version":99}`,             // future version
		`{"kind":"warp"}`,                           // unknown kind
		`{"kind":"bench","bench":"sort"}`,           // unknown benchmark
		`{"kind":"bench","bytes":-1}`,               // negative payload
		`{"kind":"halo","grid_x":-4}`,               // bad grid
		`{"kind":"bench","faults":"not-a-plan"}`,    // bad fault grammar
		`{"kind":"bench","machine":"Cray-3"}`,       // unknown machine
		`{"kind":"hpcc","rank_list":[0]}`,           // bad rank count
		`{"kind":"halo","coll":{"allreduce":"??"}}`, // bad algorithm
		`{"kind":"bench","var":"clock:120%"}`,       // variability CV out of range
		`{"kind":"halo","var":"bogus"}`,             // bad variability grammar
		`{"kind":"calib","machine":"BG/L"}`,         // machine without calibration targets
	}
	// Jobs past the simulator's limits must fail with a *LimitError.
	// Run anyway, the first three would overflow virtual time and
	// panic, the fourth would wrap its payload to 0 bytes, the grid's
	// node count would wrap to 0 and the one-rank pingpong would
	// deadlock.
	limits := []string{
		`{"kind":"bench","bench":"pingpong","ranks":2,"bytes":2305843009213693952}`,
		`{"kind":"bench","bench":"alltoall","bytes":1000000000000000}`,
		`{"kind":"halo","words":1000000000000000}`,
		`{"kind":"halo","words":4611686018427387904}`,
		`{"kind":"halo","grid_x":4294967296,"grid_y":4294967296}`,
		`{"kind":"bench","bench":"pingpong","ranks":1}`,
	}
	for _, c := range cases {
		if _, err := Decode([]byte(c)); err == nil {
			t.Errorf("Decode(%s) accepted, want error", c)
		}
	}
	for _, c := range limits {
		var le *LimitError
		if _, err := Decode([]byte(c)); !errors.As(err, &le) {
			t.Errorf("Decode(%s) = %v, want a *LimitError", c, err)
		}
	}
}

// TestLimitBoundaries: a payload of exactly a node's memory and a grid
// of exactly mpi.MaxRanks ranks validate; one unit more does not.
func TestLimitBoundaries(t *testing.T) {
	mem := int(machine.Get(machine.BGP).MemPerNode)
	over := mem + 1
	for _, c := range []struct {
		spec Spec
		ok   bool
	}{
		{Spec{Kind: KindBench, Bench: "pingpong", Ranks: 2, Bytes: &mem}, true},
		{Spec{Kind: KindBench, Bench: "pingpong", Ranks: 2, Bytes: &over}, false},
		{Spec{Kind: KindHalo, Words: mem / 4}, true},
		{Spec{Kind: KindHalo, Words: mem/4 + 1}, false},
		{Spec{Kind: KindHalo, GridX: mpi.MaxRanks, GridY: 1}, true},
		{Spec{Kind: KindHalo, GridX: mpi.MaxRanks + 1, GridY: 1}, false},
		{Spec{Kind: KindHalo, GridX: 4096, GridY: 4096}, false},
	} {
		if err := c.spec.Validate(); (err == nil) != c.ok {
			t.Errorf("Validate(%+v) = %v, want ok %v", c.spec, err, c.ok)
		}
	}
}

// TestRunDeterminism: two Runs of one spec produce byte-identical
// stdout, stderr, and artifacts — the property the server's result
// cache is built on.
func TestRunDeterminism(t *testing.T) {
	spec := Spec{Kind: KindBench, Ranks: 64, Bench: "alltoall",
		Trace: true, Links: true, Faults: "degrade=1:0.5"}
	run := func() (string, string, *RunResult) {
		var out, errw bytes.Buffer
		rr, err := Run(spec, &out, &errw)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return out.String(), errw.String(), rr
	}
	o1, e1, r1 := run()
	o2, e2, r2 := run()
	if o1 != o2 {
		t.Errorf("stdout differs between runs:\n%s\n---\n%s", o1, o2)
	}
	if e1 != e2 {
		t.Errorf("stderr differs between runs:\n%s\n---\n%s", e1, e2)
	}
	if len(r1.Artifacts) != 2 {
		t.Fatalf("got %d artifacts, want 2 (trace, links)", len(r1.Artifacts))
	}
	for i := range r1.Artifacts {
		a, b := r1.Artifacts[i], r2.Artifacts[i]
		if a.Name != b.Name || !bytes.Equal(a.Data, b.Data) {
			t.Errorf("artifact %s differs between runs", a.Name)
		}
	}
	if r1.Hash != spec.Hash() {
		t.Errorf("result hash %s, want %s", r1.Hash, spec.Hash())
	}
}

// sessionEquivalence runs a spec straight and as a paused-and-resumed
// session, asserting byte-identical stdout, stderr, and artifacts —
// the snapshot/restore ≡ straight-run guarantee. It returns the
// session's Now and Events after each pause.
func sessionEquivalence(t *testing.T, spec Spec, pauses []sim.Time) []string {
	t.Helper()
	var wantOut, wantErr bytes.Buffer
	want, err := Run(spec, &wantOut, &wantErr)
	if err != nil {
		t.Fatalf("straight Run: %v", err)
	}

	sess, err := StartSession(spec)
	if err != nil {
		t.Fatalf("StartSession: %v", err)
	}
	if sess.Hash() != spec.Hash() {
		t.Errorf("session hash %s, want %s", sess.Hash(), spec.Hash())
	}
	last := sim.Time(0)
	var marks []string
	for _, p := range pauses {
		if err := sess.StepTo(p); err != nil {
			t.Fatalf("StepTo(%v): %v", p, err)
		}
		marks = append(marks, fmt.Sprintf("StepTo(%v): now=%v events=%d", p, sess.Now(), sess.Events()))
		if now := sess.Now(); now < last {
			t.Errorf("Now went backwards: %v after %v", now, last)
		} else {
			last = now
		}
	}
	var gotOut, gotErr bytes.Buffer
	got, err := sess.Finish(&gotOut, &gotErr)
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if !sess.Done() {
		t.Error("session not Done after Finish")
	}
	if gotOut.String() != wantOut.String() {
		t.Errorf("session stdout differs from straight run:\n--- straight\n%s\n--- session\n%s", wantOut.String(), gotOut.String())
	}
	if gotErr.String() != wantErr.String() {
		t.Errorf("session stderr differs from straight run:\n--- straight\n%s\n--- session\n%s", wantErr.String(), gotErr.String())
	}
	if len(got.Artifacts) != len(want.Artifacts) {
		t.Fatalf("session produced %d artifacts, straight run %d", len(got.Artifacts), len(want.Artifacts))
	}
	for i := range want.Artifacts {
		w, g := want.Artifacts[i], got.Artifacts[i]
		if w.Name != g.Name || !bytes.Equal(w.Data, g.Data) {
			t.Errorf("artifact %s differs between session and straight run", w.Name)
		}
	}
	return marks
}

// sessionAtShards runs sessionEquivalence at shards 1, 2 and 4:
// sessions honour the spec's shard count, so a paused-and-resumed
// session equals a straight Run at every count, and every pause lands
// on the same Now and Events at each count.
func sessionAtShards(t *testing.T, spec Spec, pauses []sim.Time) {
	t.Helper()
	var want []string
	for _, shards := range []int{1, 2, 4} {
		spec.Shards = shards
		marks := sessionEquivalence(t, spec, pauses)
		if want == nil {
			want = marks
		} else if !reflect.DeepEqual(marks, want) {
			t.Errorf("shards=%d pauses:\n got %v\nwant %v (shards=1)", shards, marks, want)
		}
	}
}

func us(x float64) sim.Time { return sim.Time(sim.Microseconds(x)) }

func TestSessionEquivalenceBench(t *testing.T) {
	spec := Spec{Kind: KindBench, Ranks: 64, Bench: "allreduce",
		Trace: true, Links: true, Profile: true, Faults: "noise=1ms/50us"}
	sessionEquivalence(t, spec, []sim.Time{
		5 * sim.Time(sim.Microsecond),
		40 * sim.Time(sim.Microsecond),
		// Step far past the end: the run completes inside the window and
		// parks for Finish.
		sim.Time(sim.Second),
	})
	// Sharded: no false serial-kernel note on stderr.
	sessionAtShards(t, Spec{Kind: KindBench, Ranks: 64, Bench: "allreduce", Fidelity: "analytic"},
		[]sim.Time{us(0.2), us(1), us(1.4)})
	sessionAtShards(t, Spec{Kind: KindBench, Ranks: 64, Bench: "alltoall", Bytes: intp(1024),
		Fidelity: "analytic", Events: 300, Trace: true, Links: true},
		[]sim.Time{us(1), us(20), us(200)})
	sessionAtShards(t, Spec{Kind: KindBench, Ranks: 64, Bench: "allreduce", Fidelity: "analytic",
		Trace: true, Faults: "kill=3@0.5us,recover"},
		[]sim.Time{us(0.2), us(0.5), us(1)})
}

func TestSessionEquivalenceHalo(t *testing.T) {
	spec := Spec{Kind: KindHalo, GridX: 8, GridY: 4, Words: 512,
		Trace: true, Links: true}
	sessionEquivalence(t, spec, []sim.Time{
		100 * sim.Time(sim.Nanosecond),
		50 * sim.Time(sim.Microsecond),
		300 * sim.Time(sim.Microsecond),
	})
	// Sharded: the same profile as a straight Run.
	sessionAtShards(t, Spec{Kind: KindHalo, GridX: 16, GridY: 8, Words: 1000, Fidelity: "analytic", Profile: true},
		[]sim.Time{us(1), us(100), us(200)})
}

func intp(v int) *int { return &v }

// TestAbortDeliversTruncatedTrace: a fail-stop node kill aborts a
// single-exchange halo job with *mpi.RankFailure, and the job still
// delivers the trace recorded up to the abort — through Run and
// through a paused session alike, on the serial kernel and sharded.
func TestAbortDeliversTruncatedTrace(t *testing.T) {
	for _, spec := range []Spec{
		{Kind: KindHalo, GridX: 8, GridY: 4, Words: 512, Trace: true, Faults: "kill=2@50us"},
		{Kind: KindHalo, GridX: 8, GridY: 4, Words: 512, Trace: true, Faults: "kill=2@50us",
			Fidelity: "analytic", Shards: 2},
	} {
		var out, errw bytes.Buffer
		want, err := Run(spec, &out, &errw)
		var rf *mpi.RankFailure
		if !errors.As(err, &rf) {
			t.Fatalf("shards=%d: Run error %v, want *mpi.RankFailure", spec.Shards, err)
		}
		trace := want.Artifact(ArtifactTrace)
		if len(trace) == 0 || !json.Valid(trace) {
			t.Fatalf("shards=%d: Run delivered no loadable trace.json with the abort (%d bytes)", spec.Shards, len(trace))
		}

		sess, err := StartSession(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.StepTo(sim.Time(20 * sim.Microsecond)); err != nil {
			t.Fatalf("shards=%d: StepTo before the kill: %v", spec.Shards, err)
		}
		var sout, serr bytes.Buffer
		got, err := sess.Finish(&sout, &serr)
		if !errors.As(err, &rf) {
			t.Fatalf("shards=%d: session error %v, want *mpi.RankFailure", spec.Shards, err)
		}
		if !bytes.Equal(got.Artifact(ArtifactTrace), trace) {
			t.Errorf("shards=%d: session trace.json differs from Run's", spec.Shards)
		}
		if sout.String() != out.String() || serr.String() != errw.String() {
			t.Errorf("shards=%d: session output differs from Run's", spec.Shards)
		}
	}
}

// TestSessionRejectsMultiRunKinds: only single-simulation jobs can be
// parked.
func TestSessionRejectsMultiRunKinds(t *testing.T) {
	for _, spec := range []Spec{
		{Kind: KindHPCC},
		{Kind: KindFacility},
		{Kind: KindHalo, Sweep: true},
		{Kind: KindHalo, Mappings: true},
	} {
		if CanSession(spec) {
			t.Errorf("CanSession(%s sweep=%v mappings=%v) = true, want false", spec.Kind, spec.Sweep, spec.Mappings)
		}
		if _, err := StartSession(spec); err == nil {
			t.Errorf("StartSession(%s) accepted, want error", spec.Kind)
		}
	}
}

// TestSessionFinishIdempotent: repeated Finish replays the outcome
// without re-rendering.
func TestSessionFinishIdempotent(t *testing.T) {
	spec := Spec{Kind: KindBench, Ranks: 16, Bench: "barrier"}
	sess, err := StartSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	var out1, err1 bytes.Buffer
	r1, ferr := sess.Finish(&out1, &err1)
	if ferr != nil {
		t.Fatal(ferr)
	}
	var out2, err2 bytes.Buffer
	r2, ferr := sess.Finish(&out2, &err2)
	if ferr != nil {
		t.Fatal(ferr)
	}
	if r1 != r2 {
		t.Error("second Finish returned a different result object")
	}
	if out2.Len() != 0 || err2.Len() != 0 {
		t.Error("second Finish re-rendered output")
	}
}

// TestRunAllKinds smoke-runs every kind through the shared Run path
// and checks each is deterministic across two runs.
func TestRunAllKinds(t *testing.T) {
	specs := map[string]Spec{
		"hpcc":          {Kind: KindHPCC, RankList: []int{16}, Trace: true},
		"facility":      {Kind: KindFacility, Workload: "seed=3,nodes=64,jobs=4,cohort=halo:4:1:10s:100:cancel"},
		"halo-sweep":    {Kind: KindHalo, GridX: 2, GridY: 2, Sweep: true, Fidelity: "analytic"},
		"halo-mappings": {Kind: KindHalo, GridX: 4, GridY: 2, Mappings: true},
		"bench-pp":      {Kind: KindBench, Bench: "pingpong", Ranks: 2, Events: 64},
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			run := func() (string, string) {
				var out, errw bytes.Buffer
				if _, err := Run(spec, &out, &errw); err != nil {
					t.Fatalf("Run: %v", err)
				}
				return out.String(), errw.String()
			}
			o1, e1 := run()
			o2, e2 := run()
			if o1 != o2 || e1 != e2 {
				t.Errorf("output differs between runs")
			}
			if o1 == "" {
				t.Error("empty report")
			}
		})
	}
}
