// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel advances an integer virtual clock (picosecond resolution)
// through a priority queue of events. Logical processes are runtime
// coroutines that execute strictly one at a time under kernel control, so
// model code never needs locks and every run of a given model is
// bit-for-bit reproducible.
package sim

import (
	"fmt"
	"math"
)

// Time is an absolute point in virtual time, in integer picoseconds.
// The zero Time is the start of the simulation. The picosecond
// resolution leaves headroom for sub-nanosecond hardware events (a
// single flit on a 425 MB/s BlueGene torus link lasts a few
// nanoseconds) while still representing over 100 days of virtual time
// in an int64.
type Time int64

// Duration is a span of virtual time in integer picoseconds.
type Duration int64

// Common durations.
const (
	Picosecond  Duration = 1
	Nanosecond           = 1000 * Picosecond
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// MaxDuration is the largest representable Duration.
const MaxDuration Duration = math.MaxInt64

// Seconds converts a floating-point second count to a Duration,
// saturating at MaxDuration for values that would overflow.
func Seconds(s float64) Duration {
	ps := s * 1e12
	if ps >= math.MaxInt64 {
		return MaxDuration
	}
	if ps <= math.MinInt64 {
		return Duration(math.MinInt64)
	}
	return Duration(math.Round(ps))
}

// Microseconds converts a floating-point microsecond count to a Duration.
func Microseconds(us float64) Duration { return Seconds(us * 1e-6) }

// Nanoseconds converts a floating-point nanosecond count to a Duration.
func Nanoseconds(ns float64) Duration { return Seconds(ns * 1e-9) }

// Seconds reports the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e12 }

// Microseconds reports the duration as floating-point microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / 1e6 }

// String formats the duration with a unit chosen by magnitude.
func (d Duration) String() string {
	abs := d
	if abs < 0 {
		abs = -abs
	}
	switch {
	case abs >= Second:
		return fmt.Sprintf("%.6gs", d.Seconds())
	case abs >= Millisecond:
		return fmt.Sprintf("%.6gms", float64(d)/float64(Millisecond))
	case abs >= Microsecond:
		return fmt.Sprintf("%.6gus", float64(d)/float64(Microsecond))
	case abs >= Nanosecond:
		return fmt.Sprintf("%.6gns", float64(d)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dps", int64(d))
	}
}

// Seconds reports the time as floating-point seconds since simulation start.
func (t Time) Seconds() float64 { return float64(t) / 1e12 }

// Add returns the time advanced by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// String formats the time as seconds.
func (t Time) String() string { return fmt.Sprintf("t=%.9fs", t.Seconds()) }
