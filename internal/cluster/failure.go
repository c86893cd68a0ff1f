package cluster

import "routebricks/internal/sim"

// Failure injection. A failed node stops polling, stops its transmit
// engines, and black-holes anything arriving on its wires — the behavior
// of a crashed server. Every node learns of a failure or recovery at
// once (the cluster plays the mesh's failure detector) and re-stripes
// its balancer over the nodes still up, as an rbrouter member does.
// Traffic *destined* to a dead node's external port is undeliverable and
// is accounted as failure loss.

// FailNode schedules node id to crash at virtual time at.
func (c *Cluster) FailNode(at sim.Time, id int) {
	c.eng.Schedule(at, func() {
		n := c.nodes[id]
		if n.failed {
			return
		}
		n.failed = true
		c.restripe()
	})
}

// RecoverNode schedules node id to come back at virtual time at. Its
// rings retain whatever they held at failure; cores and transmit engines
// resume from there.
func (c *Cluster) RecoverNode(at sim.Time, id int) {
	c.eng.Schedule(at, func() {
		n := c.nodes[id]
		if !n.failed {
			return
		}
		n.failed = false
		c.restripe()
		for _, co := range n.cores {
			c.eng.After(idleRepoll, co.step)
		}
		for _, e := range n.engines {
			c.eng.After(txService, e.service)
		}
	})
}

// restripe hands every node's balancer the live vector the nodes'
// failed flags make up.
func (c *Cluster) restripe() {
	live := make([]bool, len(c.nodes))
	for i, n := range c.nodes {
		live[i] = !n.failed
	}
	for _, n := range c.nodes {
		n.bal.Restripe(live)
	}
}

// FailureDrops reports packets lost to failed nodes (arrived at a dead
// wire or injected into a dead external port).
func (c *Cluster) FailureDrops() uint64 { return c.failureDrops }
