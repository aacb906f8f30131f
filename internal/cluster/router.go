package cluster

import (
	"fmt"

	"sfcsched/internal/core"
	"sfcsched/internal/sim"
)

// Node is the router's view of one array: the member stations it feeds
// and its slice of the logical block space.
type Node struct {
	// ID is the node index, [0, Nodes).
	ID int
	// Blocks is the node's logical block capacity: DisksPerNode × the
	// member disk's cylinders. Every node has the same capacity, so
	// node ID = block / Blocks under affinity placement.
	Blocks int

	stations []*sim.Station
}

// Depth returns the node's total backlog: queued requests summed over the
// member disks, plus one per in-flight service. Routers read it at
// arrival time; the engine's deterministic event ordering makes the
// reading — and therefore the routing decision — reproducible.
func (n *Node) Depth() int {
	d := 0
	for _, st := range n.stations {
		d += st.Sched.Len()
		if st.Busy() {
			d++
		}
	}
	return d
}

// Router picks the destination node for each admitted request. Route must
// be deterministic in (r, nodes, now) and its own prior calls: the
// cluster replays byte-identically only if its routers do.
type Router interface {
	Name() string
	// Route returns the destination node index for r. Out-of-range
	// returns are clamped by the cluster. nodes is read-only state at the
	// arrival instant.
	Route(r *core.Request, nodes []*Node, now int64) int
}

// RoundRobin cycles through the nodes in arrival order, blind to load.
type RoundRobin struct {
	next int
}

// Name implements Router.
func (rr *RoundRobin) Name() string { return "rr" }

// Route implements Router.
func (rr *RoundRobin) Route(_ *core.Request, nodes []*Node, _ int64) int {
	n := rr.next % len(nodes)
	rr.next++
	return n
}

// LeastLoaded routes to the node with the smallest backlog (queued +
// in-service over its member disks), breaking ties toward the lowest
// node index so the choice is deterministic.
type LeastLoaded struct{}

// Name implements Router.
func (LeastLoaded) Name() string { return "least" }

// Route implements Router.
func (LeastLoaded) Route(_ *core.Request, nodes []*Node, _ int64) int {
	best, bestDepth := 0, nodes[0].Depth()
	for i := 1; i < len(nodes); i++ {
		if d := nodes[i].Depth(); d < bestDepth {
			best, bestDepth = i, d
		}
	}
	return best
}

// Affinity places each request on the node that owns its logical block
// range (block / Node.Blocks): stripe/zone-affine placement, so a
// tenant whose workload lives in one zone always lands on the same
// node. Under skewed tenant load this concentrates hotspots — the
// trade-off the cluster experiment measures against rr/least.
type Affinity struct{}

// Name implements Router.
func (Affinity) Name() string { return "affinity" }

// Route implements Router.
func (Affinity) Route(r *core.Request, nodes []*Node, _ int64) int {
	if r.Cylinder < 0 {
		return 0
	}
	n := r.Cylinder / nodes[0].Blocks
	if n >= len(nodes) {
		n = len(nodes) - 1
	}
	return n
}

// NewRouter builds the named routing policy: "rr" (round-robin),
// "least" (least-loaded) or "affinity" (block-range affinity).
func NewRouter(name string) (Router, error) {
	switch name {
	case "rr":
		return &RoundRobin{}, nil
	case "least":
		return LeastLoaded{}, nil
	case "affinity":
		return Affinity{}, nil
	default:
		return nil, fmt.Errorf("cluster: unknown router %q (want rr, least or affinity)", name)
	}
}
