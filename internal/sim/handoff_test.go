package sim

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"strings"
	"testing"
)

// handoffGolden is the FNV-64a hash of the traces of every program in
// TestHandoffRandomPrograms. It pins the exact interleaving the kernel
// produces: which process runs at which virtual time, in which order,
// and how each run ends. Any change to the process handoff (how a
// process is resumed and suspended) must leave it unchanged.
const handoffGolden = "f63ee4b34aeff250"

// handoffSeeds is the number of random programs hashed into the golden.
const handoffSeeds = 64

// randomProgram runs one seeded random process program and writes its
// trace — one line per process step, then the run's outcome — to w.
//
// Processes draw every choice from one shared RNG in execution order,
// so the trace depends on the interleaving itself. Steps mix timed
// sleeps, Block/Wake handoffs (woken immediately, at a later time, or
// from an event callback), spawns from inside processes, and, in some
// seeds, a Fail, a panic, or an event limit. Waiters nobody wakes
// leave the run deadlocked.
func randomProgram(seed uint64, w io.Writer) error {
	rng := NewRNG(seed)
	k := NewKernel()
	keyed := seed%3 == 1
	if keyed {
		k.Keyed()
	}
	if seed%7 == 3 {
		k.EventLimit = uint64(20 + rng.Intn(40))
	}
	var waiters []*Proc
	spawned := 0
	const maxProcs = 24

	var body func(p *Proc)
	spawn := func(name string) {
		spawned++
		k.SpawnTagged(name, spawned, body)
	}
	body = func(p *Proc) {
		steps := 2 + rng.Intn(10)
		for s := 0; s < steps; s++ {
			fmt.Fprintf(w, "%d %s %d\n", p.Now(), p.Name(), s)
			switch op := rng.Intn(100); {
			case op < 30:
				p.Sleep(Duration(rng.Intn(4)) * Nanosecond)
			case op < 50:
				waiters = append(waiters, p)
				p.Block("waiter")
			case op < 62:
				if len(waiters) > 0 {
					v := waiters[0]
					waiters = waiters[1:]
					v.Wake()
				}
			case op < 70:
				if len(waiters) > 0 {
					v := waiters[len(waiters)-1]
					waiters = waiters[:len(waiters)-1]
					v.WakeAt(p.Now().Add(Duration(1+rng.Intn(3)) * Nanosecond))
				}
			case op < 76:
				d := Duration(rng.Intn(3)) * Nanosecond
				k.After(d, func() {
					fmt.Fprintf(w, "%d event\n", k.Now())
					if len(waiters) > 0 {
						v := waiters[0]
						waiters = waiters[1:]
						v.Wake()
					}
				})
			case op < 90:
				if spawned < maxProcs {
					spawn(fmt.Sprintf("%s.%d", p.Name(), s))
				}
			case op < 92:
				if seed%5 == 2 {
					Fail(fmt.Errorf("model failure in %s", p.Name()))
				}
			case op < 94:
				if seed%5 == 4 {
					panic("bad step in " + p.Name())
				}
			default:
				p.SleepUntil(p.Now().Add(Duration(rng.Intn(2)) * Nanosecond))
			}
		}
		fmt.Fprintf(w, "%d %s done\n", p.Now(), p.Name())
	}
	for i := 0; i < 2+rng.Intn(5); i++ {
		spawn(fmt.Sprintf("p%d", i))
	}
	err := k.Run()
	var pe *PanicError
	switch {
	case errors.As(err, &pe):
		// The stack differs between builds; the process and value do not.
		fmt.Fprintf(w, "panic %s: %v\n", pe.Proc, pe.Value)
	case err != nil:
		fmt.Fprintf(w, "error: %v\n", err)
	default:
		fmt.Fprintln(w, "ok")
	}
	fmt.Fprintf(w, "now=%d events=%d live=%d keyed=%v\n", k.Now(), k.Events(), k.Live(), keyed)
	return err
}

// TestHandoffRandomPrograms hashes the traces of many seeded random
// programs against a golden, so the process handoff is pinned on
// arbitrary mixes of its operations rather than on hand-picked
// examples only.
func TestHandoffRandomPrograms(t *testing.T) {
	h := fnv.New64a()
	outcomes := map[string]int{}
	for seed := uint64(1); seed <= handoffSeeds; seed++ {
		err := randomProgram(seed, h)
		var de *DeadlockError
		var pe *PanicError
		switch {
		case err == nil:
			outcomes["ok"]++
		case errors.As(err, &de):
			outcomes["deadlock"]++
		case errors.As(err, &pe):
			outcomes["panic"]++
		case strings.Contains(err.Error(), "event limit"):
			outcomes["event limit"]++
		default:
			outcomes["fail"]++
		}
	}
	got := fmt.Sprintf("%x", h.Sum64())
	if got != handoffGolden {
		t.Errorf("handoff trace hash = %s, want %s", got, handoffGolden)
	}
	// Every way a run can end must be exercised.
	for _, o := range []string{"ok", "deadlock", "panic", "event limit", "fail"} {
		if outcomes[o] == 0 {
			t.Errorf("no program ended with %s (outcomes %v)", o, outcomes)
		}
	}
}
