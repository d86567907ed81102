package mpi

import (
	"fmt"

	"bgpsim/internal/sim"
)

// PersistentRequest is a reusable communication request in the style
// of MPI_Send_init / MPI_Recv_init: the envelope is fixed once, Start
// activates one round, and Wait completes it. Persistent requests
// model the reduced per-message software cost of pre-established
// channels (the HALO benchmark's "persistent" variants).
type PersistentRequest struct {
	r      *Rank
	isRecv bool
	peer   int
	bytes  int
	tag    int
	// The active round's records: a send's message or a receive's
	// request, nil between rounds.
	msg *message
	req *Request
}

// persistentOverheadFrac is the fraction of the normal per-message
// software cost a persistent operation pays: matching state and
// envelope processing are set up once at init time. [cal]
const persistentOverheadFrac = 0.6

// SendInit creates a persistent send channel to dst.
func (r *Rank) SendInit(dst, bytes, tag int) *PersistentRequest {
	if uint(dst) >= uint(len(r.w.ranks)) {
		badSendInit(dst)
	}
	return &PersistentRequest{r: r, peer: dst, bytes: bytes, tag: tag}
}

// badSendInit keeps SendInit's panic out of line so SendInit stays
// small enough to inline, allocating in its caller's frame.
//
//go:noinline
func badSendInit(dst int) {
	panic(fmt.Sprintf("mpi: SendInit to invalid rank %d", dst))
}

// RecvInit creates a persistent receive channel from src.
func (r *Rank) RecvInit(src, tag int) *PersistentRequest {
	return &PersistentRequest{r: r, isRecv: true, peer: src, tag: tag}
}

// Start activates the request for one round. Starting an already
// active request panics.
func (p *PersistentRequest) Start() {
	if p.msg != nil || p.req != nil {
		panic("mpi: persistent request started while active")
	}
	r := p.r
	if p.isRecv {
		p.req = r.takeRecv()
		r.post(p.req, p.peer, p.tag)
		return
	}
	p.msg = r.takeMessage()
	p.msg.bytes = p.bytes
	r.isend(p.msg, p.peer, p.tag, persistentOverheadFrac)
}

// Wait completes the active round. Persistent receives pay the reduced
// receive-side software cost.
func (p *PersistentRequest) Wait() {
	m, q := p.msg, p.req
	if m == nil && q == nil {
		panic("mpi: persistent request waited while inactive")
	}
	r := p.r
	if q != nil {
		r.waitNoOverhead(q)
		r.proc.Sleep(sim.Duration(float64(r.swOverhead()) * persistentOverheadFrac))
	} else {
		r.waitNoOverhead(&m.req)
	}
	p.msg, p.req = nil, nil
	r.retire(m, q)
}

// StartAll starts every request.
func StartAll(ps ...*PersistentRequest) {
	for _, p := range ps {
		p.Start()
	}
}

// WaitAllPersistent waits for every request.
func WaitAllPersistent(ps ...*PersistentRequest) {
	for _, p := range ps {
		p.Wait()
	}
}
