package network

import (
	"bgpsim/internal/obs"
	"bgpsim/internal/sim"
	"bgpsim/internal/topology"
)

// SetProbe attaches an observability probe. The probe receives one
// Inject event per message (per packet in Packet fidelity) and one
// LinkBusy event per link reservation; both only exist in the
// Contention and Packet fidelities, because the Analytic model keeps
// no per-link state to observe. Call before the simulation starts; a
// nil probe costs one pointer compare per transfer.
func (n *Net) SetProbe(p obs.Probe) { n.probe = p }

// probeReserve reports one contention-model reservation of the route
// in routeBuf: the injection wait and the uniform per-link
// serialization of the healthy path. It is kept out of line, with few
// arguments, so the probe's interface-call spill slots stay off the
// contend frame, which sits on the sending rank's stack.
//
//go:noinline
func (n *Net) probeReserve(now, depart sim.Time, srcNode, bytes int, linkSer sim.Duration) {
	perHop := sim.Seconds(n.mach.TorusHopLat)
	n.probe.Inject(srcNode, depart, depart.Sub(now), bytes)
	for i, l := range n.routeBuf {
		off := sim.Duration(i) * perHop
		n.probe.LinkBusy(n.torus.LinkIndex(l), depart.Add(off), linkSer, bytes)
	}
}

// probeReserveFaulty is probeReserve for the faulty contention path,
// where each degraded link serializes at its own surviving bandwidth.
//
//go:noinline
func (n *Net) probeReserveFaulty(now, depart sim.Time, srcNode, bytes int, route []topology.Link, perHop sim.Duration) {
	n.probe.Inject(srcNode, depart, depart.Sub(now), bytes)
	for i, l := range route {
		off := sim.Duration(i) * perHop
		f := n.faults.LinkFactor(l, now)
		linkSer := sim.Seconds(float64(bytes) / (n.linkBW * f))
		n.probe.LinkBusy(n.torus.LinkIndex(l), depart.Add(off), linkSer, bytes)
	}
}
