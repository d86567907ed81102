package mpi

import (
	"strconv"

	"bgpsim/internal/machine"
)

// Helpers shared by every collective algorithm: the power-of-two
// fold/unfold mapping used by the reduction algorithms, and the
// matching key of collective-internal traffic.

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

// collKey is the matching key of collective-internal traffic: the
// communicator plus a packed word holding the collective's sequence
// number on it, the collective's kind, an algorithm sub-phase and a
// round. Messages carrying it can never match user receives, whose key
// is the zero value. Building and comparing one allocates nothing;
// String renders the text form ("name#seq:kind.phase.roundK") for the
// probes, which is the only place it is needed.
type collKey struct {
	c *Comm
	v uint64
}

// Field layout of collKey.v, low bits first: the round index (23 bits,
// enough for any round of a world within maxRanks), the round kind (3
// bits), the sub-phase (3 bits), the kind (5 bits) and the sequence
// number (30 bits, checked in Comm.nextSeq). Every field has its own
// bits, so the packing is injective within those bounds.
const (
	keyRoundBits  = 23
	keyRKindBits  = 3
	keyPhaseBits  = 3
	keyKindBits   = 5
	keyRKindShift = keyRoundBits
	keyPhaseShift = keyRKindShift + keyRKindBits
	keyKindShift  = keyPhaseShift + keyPhaseBits
	keySeqShift   = keyKindShift + keyKindBits
	maxCollSeq    = 1 << (64 - keySeqShift)
	maxRanks      = 1 << keyRoundBits
)

// MaxRanks is the largest world NewWorld accepts: requests store ranks
// as int32 and collective keys pack round indices, which the rank count
// bounds, into 23 bits.
const MaxRanks = maxRanks - 1

// Key kinds beyond the collective ops (opID), for the gates and
// payload collectives that draw a sequence number too.
const (
	kindSplit = numCollOps + iota
	kindBcastPayload
	kindGatherPayload
	kindBcastPayloadAgree
	kindGatherPayloadAgree
	kindAllreducePayloadAgree
)

var extraKindNames = [...]string{"split", "bcastpayload", "gatherpayload",
	"bcastpayload!agree", "gatherpayload!agree", "allreducepayload!agree"}

// kindName is the text form of a key kind: the op name for collective
// ops.
func kindName(kind opID) string {
	if kind < numCollOps {
		return collOpNames[kind]
	}
	return extraKindNames[kind-numCollOps]
}

// keyPhase is an algorithm sub-phase: a composed algorithm runs each
// of its parts under its own phase, and the reductions key their
// power-of-two fold and unfold steps apart from the rounds.
type keyPhase uint64

const (
	phaseUp keyPhase = iota + 1
	phaseDown
	phaseScatter
	phaseAllgather
	phaseFold
	phaseUnfold
)

var phaseNames = [...]string{"", ".up", ".down", ".sc", ".ag", ".fold", ".unfold"}

// roundKind names an algorithm's round sequence: plain rounds, the
// segments of a pipelined broadcast, and the reduce-scatter and
// allgather halves of a two-part reduction.
type roundKind uint64

const (
	roundR roundKind = iota + 1
	roundSeg
	roundRS
	roundAG
)

var roundNames = [...]string{"", ".r", ".s", ".rs", ".ag"}

// newCollKey is the key of collective number seq of the given kind on
// c.
func newCollKey(c *Comm, seq int, kind opID) collKey {
	return collKey{c, uint64(seq)<<keySeqShift | uint64(kind)<<keyKindShift}
}

// phase returns the key of one sub-phase of the collective.
func (k collKey) phase(ph keyPhase) collKey {
	k.v |= uint64(ph) << keyPhaseShift
	return k
}

// round returns the key of round n of the given kind. n is below the
// communicator size, so it fits its field (maxRanks).
func (k collKey) round(kind roundKind, n int) collKey {
	k.v |= uint64(kind)<<keyRKindShift | uint64(n)
	return k
}

// String renders the key's text form: the communicator's collective
// key (Comm.key) followed by the sub-phase and the round, if any.
func (k collKey) String() string {
	s := k.c.key(int(k.v>>keySeqShift), kindName(opID(k.v>>keyKindShift&(1<<keyKindBits-1))))
	s += phaseNames[k.v>>keyPhaseShift&(1<<keyPhaseBits-1)]
	if rk := k.v >> keyRKindShift & (1<<keyRKindBits - 1); rk != 0 {
		s += roundNames[rk] + strconv.Itoa(int(k.v&(1<<keyRoundBits-1)))
	}
	return s
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
