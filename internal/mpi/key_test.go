package mpi

import (
	"strings"
	"testing"

	"bgpsim/internal/machine"
)

// TestCollKeyText pins the text form of packed collective keys: the
// communicator's key, then the sub-phase and round suffixes, exactly as
// the string keys they replace were built.
func TestCollKeyText(t *testing.T) {
	c := &Comm{name: "world"}
	for _, tc := range []struct {
		k    collKey
		want string
	}{
		{newCollKey(c, 0, opBarrier), "world#0:barrier"},
		{newCollKey(c, 3, opAllreduce).round(roundRS, 2), "world#3:allreduce.rs2"},
		{newCollKey(c, 3, opAllreduce).round(roundAG, 2), "world#3:allreduce.ag2"},
		{newCollKey(c, 7, opAllreduce).phase(phaseFold), "world#7:allreduce.fold"},
		{newCollKey(c, 1, opBcast).phase(phaseAllgather).round(roundR, 5), "world#1:bcast.ag.r5"},
		{newCollKey(c, 1, opBcast).round(roundSeg, 0), "world#1:bcast.s0"},
		{newCollKey(c, 4, opBarrier).phase(phaseDown), "world#4:barrier.down"},
		{newCollKey(c, 9, kindGatherPayload), "world#9:gatherpayload"},
		{newCollKey(c, 2, kindAllreducePayloadAgree), "world#2:allreducepayload!agree"},
	} {
		if got := tc.k.String(); got != tc.want {
			t.Errorf("key %#x renders %q, want %q", tc.k.v, got, tc.want)
		}
	}
}

// TestCollKeyInjective checks that distinct packed keys render distinct
// text and equal text comes from equal keys, across every kind,
// sub-phase and round kind and the extremes of the sequence and round
// fields — the bare key included, which must differ from round 0.
func TestCollKeyInjective(t *testing.T) {
	c := &Comm{name: "c"}
	byText := map[string]collKey{}
	n := 0
	for _, seq := range []int{0, 1, 10, maxCollSeq - 1} {
		for kind := opID(0); kind <= kindAllreducePayloadAgree; kind++ {
			base := newCollKey(c, seq, kind)
			for ph := keyPhase(0); ph <= phaseUnfold; ph++ {
				k := base
				if ph != 0 {
					k = k.phase(ph)
				}
				keys := []collKey{k}
				for rk := roundR; rk <= roundAG; rk++ {
					for _, r := range []int{0, 1, 10, maxRanks - 1} {
						keys = append(keys, k.round(rk, r))
					}
				}
				for _, k := range keys {
					s := k.String()
					if prev, ok := byText[s]; ok && prev != k {
						t.Fatalf("keys %#x and %#x both render %q", prev.v, k.v, s)
					}
					byText[s] = k
					n++
				}
			}
		}
	}
	if len(byText) != n {
		t.Fatalf("%d keys rendered %d distinct texts", n, len(byText))
	}
}

// TestPackedFieldBounds checks the input bounds the packed fields rely
// on: NewWorld rejects a world whose rank ids or round indices would
// not fit their fields (maxRanks), and a send or receive rejects a
// rank or tag outside the int32 range a request stores, rather than
// matching whatever the truncated value names.
func TestPackedFieldBounds(t *testing.T) {
	cfg := bgpConfig(maxRanks/4, machine.VN)
	if _, err := NewWorld(cfg); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Errorf("NewWorld with %d ranks: err = %v, want the rank limit", maxRanks, err)
	}
	const big = 1<<40 + 1 // truncates to 1, a valid rank and tag
	for _, c := range []struct {
		name string
		op   func(r *Rank)
		want string
	}{
		{"send tag", func(r *Rank) { r.Isend(1, 8, big) }, "tag 1099511627777 out of range"},
		{"recv tag", func(r *Rank) { r.Irecv(1, big) }, "tag 1099511627777 out of range"},
		{"recv source", func(r *Rank) { r.Irecv(big, 0) }, "receive from invalid rank 1099511627777"},
	} {
		_, err := Execute(bgpConfig(1, machine.DUAL), func(r *Rank) {
			if r.ID() == 0 {
				c.op(r)
			}
		})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
}
