package mpi

import (
	"strconv"

	"bgpsim/internal/machine"
)

// Helpers shared by every collective algorithm: the power-of-two
// fold/unfold mapping used by the reduction algorithms, and the
// per-round matching-key builder.

// foldIn maps the communicator onto a power-of-two subgroup: ranks
// below 2*rem pair up (evens hand their data to odds). Returns the
// rank's id in the power-of-two group, or -1 for folded-out ranks.
func foldIn(me, p, pof2 int) int {
	rem := p - pof2
	if me < 2*rem {
		if me%2 == 0 {
			return -1
		}
		return me / 2
	}
	return me - rem
}

// unfold maps a power-of-two group rank back to the communicator rank.
func unfold(newRank, p, pof2 int) int {
	rem := p - pof2
	if newRank < rem {
		return newRank*2 + 1
	}
	return newRank + rem
}

// pow2Floor returns the largest power of two not exceeding p.
func pow2Floor(p int) int {
	f := 1
	for f*2 <= p {
		f *= 2
	}
	return f
}

// roundKey builds the matching key of one algorithm round: the
// collective's key plus a suffix (".r", ".s", ".rs", ".ag", ...) and a
// round number. Built by hand rather than with fmt for the same reason
// as Comm.nextKey: this runs on every round of every software
// collective and fmt's deep call stack forces stack growth on fresh
// rank coroutines.
func roundKey(key, suffix string, k int) string {
	b := make([]byte, 0, len(key)+len(suffix)+4)
	b = append(b, key...)
	b = append(b, suffix...)
	b = strconv.AppendInt(b, int64(k), 10)
	return string(b)
}

// reduceFlops charges the local combination cost of a reduction over a
// buffer of the given size (one flop per 8-byte element, three
// streamed operands).
func (r *Rank) reduceFlops(bytes int) {
	if bytes == 0 {
		return
	}
	r.Compute(float64(bytes)/8, 3*float64(bytes), machine.ClassStream)
}
