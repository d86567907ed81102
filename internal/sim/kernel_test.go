package sim

import (
	"fmt"
	"strings"
	"testing"
)

// TestDeadlockBlockedOrdering pins the determinism of deadlock
// reports: the Blocked list is sorted, not in spawn or block order, so
// the same model failure always produces the same error string.
func TestDeadlockBlockedOrdering(t *testing.T) {
	k := NewKernel()
	// Spawn in an order unrelated to the sorted result, with block
	// times scrambled so block order differs from spawn order too.
	k.Spawn("zeta", func(p *Proc) {
		p.Block("waiting on zeta-dep")
	})
	k.Spawn("alpha", func(p *Proc) {
		p.Sleep(3 * Nanosecond)
		p.Block("waiting on alpha-dep")
	})
	k.Spawn("mid", func(p *Proc) {
		p.Sleep(Nanosecond)
		p.Block("waiting on mid-dep")
	})
	err := k.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	want := []BlockedProc{
		{Name: "alpha", Reason: "waiting on alpha-dep", Since: Time(3 * Nanosecond)},
		{Name: "mid", Reason: "waiting on mid-dep", Since: Time(Nanosecond)},
		{Name: "zeta", Reason: "waiting on zeta-dep", Since: 0},
	}
	if len(de.Blocked) != len(want) {
		t.Fatalf("Blocked = %v, want %v", de.Blocked, want)
	}
	for i := range want {
		if de.Blocked[i] != want[i] {
			t.Fatalf("Blocked = %v, want %v", de.Blocked, want)
		}
	}
	if !strings.Contains(de.Error(), "3 process(es) blocked") {
		t.Errorf("Error() = %q, want blocked count", de.Error())
	}
	// The report carries when each process stalled and the time of the
	// last event, so a reader can tell the long-stuck process from the
	// one that blocked at the end.
	if de.Time != Time(3*Nanosecond) {
		t.Errorf("Time = %v, want last event at 3ns", de.Time)
	}
	msg := de.Error()
	for _, frag := range []string{
		"last event at t=0.000000003s",
		"alpha (waiting on alpha-dep, blocked since t=0.000000003s)",
		"mid (waiting on mid-dep, blocked since t=0.000000001s)",
		"zeta (waiting on zeta-dep, blocked since t=0.000000000s)",
	} {
		if !strings.Contains(msg, frag) {
			t.Errorf("Error() = %q, missing %q", msg, frag)
		}
	}
}

// TestProcPanicRecovered checks the hardened error path: a panic in a
// process body aborts the run with a *PanicError carrying the process
// name and a stack trace, instead of crashing the whole program.
func TestProcPanicRecovered(t *testing.T) {
	k := NewKernel()
	k.Spawn("healthy", func(p *Proc) { p.Sleep(Nanosecond) })
	k.Spawn("sick", func(p *Proc) {
		p.Sleep(Nanosecond)
		panic("model bug")
	})
	err := k.Run()
	pe, ok := err.(*PanicError)
	if !ok {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Proc != "sick" || pe.Value != "model bug" {
		t.Errorf("PanicError = %q/%v, want sick/model bug", pe.Proc, pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "kernel_test") {
		t.Errorf("stack trace missing panic site:\n%s", pe.Stack)
	}
}

// TestFailAbortsWithTypedError checks that sim.Fail surfaces the
// carried error itself from Run, unwrapped, so callers can errors.As
// on model-defined fault types.
func TestFailAbortsWithTypedError(t *testing.T) {
	k := NewKernel()
	sentinel := fmt.Errorf("link down")
	k.Spawn("failer", func(p *Proc) {
		p.Sleep(Nanosecond)
		Fail(sentinel)
	})
	if err := k.Run(); err != sentinel {
		t.Fatalf("err = %v, want the sentinel error itself", err)
	}
}

// TestAbortStopsAfterCurrentEvent checks that Abort from an event
// callback stops the run promptly and that the first abort wins.
func TestAbortStopsAfterCurrentEvent(t *testing.T) {
	k := NewKernel()
	first := fmt.Errorf("first")
	fired := 0
	k.After(Nanosecond, func() {
		fired++
		k.Abort(first)
		k.Abort(fmt.Errorf("second"))
	})
	k.After(2*Nanosecond, func() { fired++ })
	if err := k.Run(); err != first {
		t.Fatalf("err = %v, want first abort error", err)
	}
	if fired != 1 {
		t.Errorf("fired = %d events after abort, want 1", fired)
	}
}

// TestEventLimitAbort checks the abort path: the limit counts events
// *fired*, the error names the limit, the kernel refuses to run again,
// and Events() reports how many events actually fired.
func TestEventLimitAbort(t *testing.T) {
	k := NewKernel()
	k.EventLimit = 100
	fired := 0
	var tick func()
	tick = func() {
		fired++
		k.After(Nanosecond, tick)
	}
	k.After(Nanosecond, tick)
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "event limit 100 exceeded") {
		t.Fatalf("err = %v, want event limit error", err)
	}
	if fired != 101 {
		t.Errorf("fired %d callbacks, want 101 (limit checked after firing)", fired)
	}
	if k.Events() != 101 {
		t.Errorf("Events() = %d, want 101", k.Events())
	}
	if err := k.Run(); err == nil || !strings.Contains(err.Error(), "already ran") {
		t.Errorf("Run after abort = %v, want already-ran error", err)
	}
}

// TestEventLimitCountsFiredNotScheduled: a burst of scheduled-but-
// unfired events must not trip the limit. The seed kernel tracked
// scheduled events (seq) in Events(); the limit and the counter now
// both follow fired events.
func TestEventLimitCountsFiredNotScheduled(t *testing.T) {
	k := NewKernel()
	k.EventLimit = 60
	// Schedule 50 events; each schedules nothing further. 50 fired
	// < 60, so Run must succeed even though intermediate scheduling
	// bursts exist.
	for i := 0; i < 50; i++ {
		k.At(Time(i), func() {})
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v (limit must count fired events, not scheduled)", err)
	}
	if k.Events() != 50 {
		t.Errorf("Events() = %d, want 50 fired", k.Events())
	}
}

// TestEventsCountsFiredDuringRun observes the counter mid-run: inside
// the i-th callback, i events have completed. Under the seed kernel
// this read 5 (the scheduled count) in every callback.
func TestEventsCountsFiredDuringRun(t *testing.T) {
	k := NewKernel()
	var seen []uint64
	for i := 0; i < 5; i++ {
		k.At(Time(i*10), func() { seen = append(seen, k.Events()) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, got := range seen {
		if got != uint64(i) {
			t.Errorf("callback %d saw Events() = %d, want %d", i, got, i)
		}
	}
	if k.Events() != 5 {
		t.Errorf("final Events() = %d, want 5", k.Events())
	}
}

// TestRunTwiceAfterSuccess: the re-entry guard on a kernel that
// completed normally.
func TestRunTwiceAfterSuccess(t *testing.T) {
	k := NewKernel()
	k.At(Time(1), func() {})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "already ran") {
		t.Errorf("second Run = %v, want already-ran error", err)
	}
}

// TestFIFOWithinTimestampAcrossRefill pins FIFO order within a
// timestamp across a refill: A and B are scheduled before the clock
// reaches 10 and reach the queue's bucket 0 when a refill anchors it
// there; C, D and E are scheduled at 10 while the clock is at 10 and
// are appended to bucket 0 behind them. All five must fire in schedule
// order.
func TestFIFOWithinTimestampAcrossRefill(t *testing.T) {
	k := NewKernel()
	var order []string
	k.At(Time(10), func() {
		order = append(order, "A")
		// now == 10: these land in bucket 0 behind B, also at t=10
		// but scheduled earlier.
		k.At(Time(10), func() {
			order = append(order, "C")
			k.At(Time(10), func() { order = append(order, "E") })
		})
		k.At(Time(10), func() { order = append(order, "D") })
		// A future event must wait for every t=10 event.
		k.At(Time(11), func() { order = append(order, "F") })
	})
	k.At(Time(10), func() { order = append(order, "B") })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := "A B C D E F"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("order = %q, want %q", got, want)
	}
}

// TestWakeFIFOAcrossProcs: wakes issued at one timestamp resume
// processes in wake order, exercising the at-now resume path.
func TestWakeFIFOAcrossProcs(t *testing.T) {
	k := NewKernel()
	var order []int
	var sleepers [4]*Proc
	for i := 0; i < 4; i++ {
		i := i
		sleepers[i] = k.Spawn("sleeper", func(p *Proc) {
			p.Block("waiting for wake")
			order = append(order, i)
		})
	}
	k.Spawn("waker", func(p *Proc) {
		p.Sleep(Nanosecond)
		// Wake out of spawn order; resume order must follow wake order.
		for _, i := range []int{2, 0, 3, 1} {
			sleepers[i].Wake()
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{2, 0, 3, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("resume order = %v, want %v", order, want)
		}
	}
}
