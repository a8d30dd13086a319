package obs

import (
	"sync"
	"time"
)

// RunSample is one plan node's worth of actuals. The stratum executor runs
// each region between transfers as one engine evaluation, and the engine
// reports a sample per node of the region from inside its pipeline
// (eval.NodeObserver); the executor hands them to EXPLAIN ANALYZE keyed by
// plan path, with the additive fields reduced to the node's own share. A
// node that streams has no materialization time of its own: Wall is the time
// spent in its pulls, less its children's. PeakBytes is not additive — it is
// the region's, and is reported on the region's root node only.
type RunSample struct {
	Rows         int64         // tuples the node produced
	Batches      int64         // columnar batches it produced
	Wall         time.Duration // wall time spent in the node
	SpilledBytes int64         // bytes written to spill files
	SpilledOps   int64         // operators that spilled
	PeakBytes    int64         // peak tracked memory of the node's region (root only)
}

// NodeStats accumulates samples for one plan node, keyed by the node's
// algebra path (the stable plan-node ID). Evals and Merge exist because a
// node can be evaluated more than once (retries, shard fan-out); for the
// single-process EXPLAIN ANALYZE path Evals is 1. PeakBytes is set on
// region roots only (see RunSample).
type NodeStats struct {
	RunSample
	Evals int64
}

// Merge folds s into n. Rows/Batches/Spill accumulate; Wall accumulates
// (total time attributed to the node); PeakBytes keeps the max.
func (n *NodeStats) Merge(s RunSample) {
	n.Evals++
	n.Rows += s.Rows
	n.Batches += s.Batches
	n.Wall += s.Wall
	n.SpilledBytes += s.SpilledBytes
	n.SpilledOps += s.SpilledOps
	if s.PeakBytes > n.PeakBytes {
		n.PeakBytes = s.PeakBytes
	}
}

// PlanProbe collects per-node actuals for one analyzed execution. Node
// IDs are algebra path strings ("ε", "0", "0.1.0"); obs stays
// dependency-free by treating them as opaque keys. Safe for concurrent
// use — parallel engines may observe from worker goroutines.
type PlanProbe struct {
	mu    sync.Mutex
	nodes map[string]*NodeStats
}

// NewPlanProbe returns an empty probe.
func NewPlanProbe() *PlanProbe {
	return &PlanProbe{nodes: make(map[string]*NodeStats)}
}

// Observe records one evaluation sample for the node at path.
func (p *PlanProbe) Observe(path string, s RunSample) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ns, ok := p.nodes[path]
	if !ok {
		ns = &NodeStats{}
		p.nodes[path] = ns
	}
	ns.Merge(s)
}

// Get returns the accumulated stats for path, or nil if the node was
// never observed (e.g. it executed inside the DBMS black box).
func (p *PlanProbe) Get(path string) *NodeStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.nodes[path]
}

// Len returns the number of observed nodes.
func (p *PlanProbe) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.nodes)
}

// Each calls fn for every observed node. Iteration order is unspecified;
// fn must not call back into the probe.
func (p *PlanProbe) Each(fn func(path string, n *NodeStats)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for path, n := range p.nodes {
		fn(path, n)
	}
}
