package mpi

import (
	"fmt"
	"reflect"
	"testing"

	"bgpsim/internal/fault"
	"bgpsim/internal/machine"
	"bgpsim/internal/network"
	"bgpsim/internal/sim"
)

// stepwiseCfg builds a small contention-mode config.
func stepwiseCfg() Config {
	m := machine.Get(machine.BGP)
	return Config{Machine: m, Nodes: 16, Mode: machine.VN, Fidelity: network.Contention}
}

func stepwiseProgram(r *Rank) {
	w := r.World()
	w.Barrier(r)
	r.Compute(1e5, 1e4, machine.ClassStencil)
	w.Alltoall(r, 512)
	w.Allreduce(r, 8, true)
}

// TestStepwiseEquivalence: Begin/StepTo.../Finish produces exactly the
// Result a straight Run does, at any choice of pause points — the
// contract that makes stepwise execution a sound snapshot substrate.
//
// Stepwise runs drive the sharded coordinator too. Paused before,
// exactly at and after a node fault (fail-stop and recover plans), or
// while every shard is gate-capped, and then finished, a sharded run
// equals the straight run at its shard count — result, trace and probe
// streams — and every pause lands on the same Now and Events at shards
// 1, 2 and 4.
func TestStepwiseEquivalence(t *testing.T) {
	want, err := Execute(stepwiseCfg(), stepwiseProgram)
	if err != nil {
		t.Fatalf("straight run: %v", err)
	}

	pauseSets := [][]sim.Time{
		{},
		{sim.Time(want.Elapsed) / 2},
		{1, 2, 3, sim.Time(want.Elapsed) / 3, sim.Time(want.Elapsed), sim.Time(want.Elapsed) * 10},
	}
	for i, pauses := range pauseSets {
		run, err := Begin(stepwiseCfg(), stepwiseProgram)
		if err != nil {
			t.Fatalf("pauses %d: Begin: %v", i, err)
		}
		last := sim.Time(0)
		for _, p := range pauses {
			if err := run.StepTo(p); err != nil {
				t.Fatalf("pauses %d: StepTo(%v): %v", i, p, err)
			}
			if now := run.Now(); now < last {
				t.Errorf("pauses %d: Now went backwards (%v after %v)", i, now, last)
			} else {
				last = now
			}
		}
		got, err := run.Finish()
		if err != nil {
			t.Fatalf("pauses %d: Finish: %v", i, err)
		}
		if got.Elapsed != want.Elapsed {
			t.Errorf("pauses %d: elapsed %v, want %v", i, got.Elapsed, want.Elapsed)
		}
		if got.Events != want.Events {
			t.Errorf("pauses %d: events %d, want %d", i, got.Events, want.Events)
		}
		if !reflect.DeepEqual(got.Net, want.Net) {
			t.Errorf("pauses %d: network stats differ:\n got %+v\nwant %+v", i, got.Net, want.Net)
		}
		if !reflect.DeepEqual(got.RankElapsed, want.RankElapsed) {
			t.Errorf("pauses %d: per-rank finish times differ", i)
		}
		if !run.Done() {
			t.Errorf("pauses %d: not Done after Finish", i)
		}
	}

	us := func(x float64) sim.Time { return sim.Time(sim.Microseconds(x)) }
	failStop := fault.NewPlan(3)
	failStop.KillNode(9, us(500))
	recoverPlan := fault.NewPlan(7)
	recoverPlan.EnableRecovery()
	recoverPlan.KillNode(5, us(400))
	recoverPlan.KillNode(11, us(600))

	// In the gate-capped program every shard's first rank enters the
	// barrier after one compute block while the shard's other ranks
	// still compute, so until the last entry every shard sits
	// gate-capped with events pending and only stall steps progress.
	one, err := Execute(Config{Machine: machine.Get(machine.BGP), Nodes: 1, Mode: machine.SMP},
		func(r *Rank) { r.Compute(1e5, 0, machine.ClassDGEMM) })
	if err != nil {
		t.Fatal(err)
	}
	block := sim.Time(one.Elapsed)
	capped := func(t *testing.T, run *Running) {
		if len(run.w.shards) == 0 {
			t.Fatal("stepwise run is not on shard kernels")
		}
		for _, sh := range run.w.shards {
			if sh.blockedGates == 0 || sh.k.Drained() {
				t.Errorf("pause at %v: shard %d not gate-capped with events pending", run.Now(), sh.id)
			}
		}
	}
	cases := []struct {
		name   string
		cfg    Config
		prog   func(*Rank)
		pauses [][]sim.Time
		check  func(*testing.T, *Running) // after every pause
	}{
		{
			name: "fail-stop",
			cfg:  Config{Machine: machine.Get(machine.BGP), Nodes: 16, Mode: machine.SMP, Fidelity: network.Analytic, Faults: failStop},
			prog: func(r *Rank) {
				for it := 0; it < 40; it++ {
					r.Compute(1e5, 0, machine.ClassDGEMM)
					r.World().Allreduce(r, 128, false)
				}
			},
			pauses: [][]sim.Time{{us(250), us(500), us(700)}, {us(500)}, {us(700)}},
		},
		{
			name: "recover",
			cfg:  Config{Machine: machine.Get(machine.BGP), Nodes: 16, Mode: machine.DUAL, Fidelity: network.Analytic, Faults: recoverPlan},
			prog: func(r *Rank) {
				for it := 0; it < 12; it++ {
					r.Compute(3e5, 0, machine.ClassDGEMM)
					r.World().Allreduce(r, 256, false)
				}
			},
			pauses: [][]sim.Time{{us(300), us(400), us(500), us(600), us(700), us(1500)}, {us(400)}, {us(600)}},
		},
		{
			name: "exchange",
			cfg:  Config{Machine: machine.Get(machine.BGP), Nodes: 16, Mode: machine.VN, Fidelity: network.Analytic},
			prog: func(r *Rank) {
				n := r.Size()
				for it := 0; it < 4; it++ {
					r.Compute(float64(1+r.ID()%5)*1e4, 0, machine.ClassStencil)
					r.Sendrecv((r.ID()+1+it)%n, 512*(1+r.ID()%7), it, (r.ID()-1-it+2*n)%n, it)
				}
			},
			pauses: [][]sim.Time{{us(5), us(10)}},
		},
		{
			name: "gate-capped",
			cfg:  Config{Machine: machine.Get(machine.BGP), Nodes: 16, Mode: machine.SMP, Fidelity: network.Analytic},
			prog: func(r *Rank) {
				r.Compute(float64(1+r.ID()%4)*1e5, 0, machine.ClassDGEMM)
				r.World().Barrier(r)
				r.World().Allreduce(r, 64, false)
			},
			pauses: [][]sim.Time{{block * 3 / 2}, {block * 3 / 2, block * 5 / 2, block * 7 / 2}},
			check:  capped,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// Also pause exactly at the time of a traced event in a busy
			// stretch: events at the pause time must wait for the next
			// step, however close the previous window's start.
			pauseSets := c.pauses
			if at, ok := closeAfter(t, c.cfg, c.prog); ok && c.check == nil {
				pauseSets = append(pauseSets, []sim.Time{at})
			}
			for i, pauses := range pauseSets {
				var wantMarks []string
				for _, shards := range []int{1, 2, 4} {
					want := takeSnapshot(t, c.cfg, shards, c.prog)
					got, marks := takePaused(t, c.cfg, shards, c.prog, pauses, func(run *Running) {
						if c.check != nil {
							c.check(t, run)
						}
					})
					checkSameRun(t, fmt.Sprintf("pauses %d shards=%d", i, shards), want, got)
					if got.err == "" && got.shards != shards {
						t.Errorf("pauses %d: stepwise run used %d event loops, want %d", i, got.shards, shards)
					}
					if wantMarks == nil {
						wantMarks = marks
					} else if !reflect.DeepEqual(marks, wantMarks) {
						t.Errorf("pauses %d: shards=%d pauses\n got %v\nwant %v (shards=1)", i, shards, marks, wantMarks)
					}
				}
			}
		})
	}
}

// closeAfter returns the time of a traced event that follows an
// earlier one by less than the lookahead, from the middle of the
// straight run: a pause there falls inside a window the coordinator
// would otherwise open, so events at the pause time must wait.
func closeAfter(t *testing.T, cfg Config, prog func(*Rank)) (sim.Time, bool) {
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	L := sim.Time(w.Net().Lookahead())
	var times []sim.Time
	for _, line := range takeSnapshot(t, cfg, 1, prog).trace {
		var at sim.Time
		fmt.Sscan(line, &at)
		if n := len(times); n == 0 || at != times[n-1] {
			times = append(times, at)
		}
	}
	for i := len(times) / 2; i < len(times); i++ {
		if times[i]-times[i-1] < L {
			return times[i], true
		}
	}
	return 0, false
}

// TestStepwiseEarlyCompletion: a run that ends inside a StepTo window
// is finalized there; later steps are no-ops and Finish replays the
// stored result.
func TestStepwiseEarlyCompletion(t *testing.T) {
	run, err := Begin(stepwiseCfg(), stepwiseProgram)
	if err != nil {
		t.Fatal(err)
	}
	if err := run.StepTo(sim.Time(sim.Second)); err != nil {
		t.Fatalf("StepTo past the end: %v", err)
	}
	if !run.Done() {
		t.Fatal("run not finalized after draining inside the window")
	}
	if err := run.StepTo(2 * sim.Time(sim.Second)); err != nil {
		t.Errorf("StepTo after completion: %v", err)
	}
	res, err := run.Finish()
	if err != nil || res == nil {
		t.Fatalf("Finish after early completion: %v", err)
	}
	res2, _ := run.Finish()
	if res2 != res {
		t.Error("second Finish returned a different result object")
	}
}

// TestStepwiseDeadlock: a deadlock surfacing mid-window seals the run
// with the same annotated error the straight path reports.
func TestStepwiseDeadlock(t *testing.T) {
	cfg := Config{Machine: machine.Get(machine.BGP), Nodes: 2, Mode: machine.SMP}
	run, err := Begin(cfg, func(r *Rank) {
		if r.ID() == 0 {
			r.Recv(1, 0) // rank 1 never sends
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := run.StepTo(sim.Time(sim.Second)); err == nil {
		t.Fatal("deadlock not reported by StepTo")
	}
	if _, err := run.Finish(); err == nil {
		t.Fatal("deadlock not replayed by Finish")
	}
}

// TestBeginConsumesWorld: a world can only be started once, by either
// path.
func TestBeginConsumesWorld(t *testing.T) {
	w, err := NewWorld(stepwiseCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Begin(stepwiseProgram); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Begin(stepwiseProgram); err == nil {
		t.Error("second Begin on one world accepted")
	}
}
