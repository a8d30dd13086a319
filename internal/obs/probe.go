package obs

import (
	"sync"
	"time"
)

// Spill is one run's spilling record: what a budgeted engine wrote to its
// spill files and the largest working set it tracked. It is declared once
// and embedded wherever the counters travel — exec.Stats, RunSample,
// stratum.Trace and QueryRecord — so the JSON tags are the query log's.
// PeakBytes is not additive: Add keeps the larger peak, and Less leaves it.
type Spill struct {
	PeakBytes    int64 `json:"peak_bytes,omitempty"`    // peak tracked working-set bytes
	SpilledOps   int64 `json:"spilled_ops,omitempty"`   // operators that spilled
	SpilledBytes int64 `json:"spilled_bytes,omitempty"` // encoded bytes written to spill files
	SpillFiles   int64 `json:"spill_files,omitempty"`   // spill pass files created
}

// Add folds o into s: the counts sum, the peak is the larger of the two.
func (s *Spill) Add(o Spill) {
	s.PeakBytes = max(s.PeakBytes, o.PeakBytes)
	s.SpilledOps += o.SpilledOps
	s.SpilledBytes += o.SpilledBytes
	s.SpillFiles += o.SpillFiles
}

// Less is s with o's counts taken away and s's peak kept: a node's own
// share of its subtree's totals, or the counters' movement since o.
func (s Spill) Less(o Spill) Spill {
	s.SpilledOps -= o.SpilledOps
	s.SpilledBytes -= o.SpilledBytes
	s.SpillFiles -= o.SpillFiles
	return s
}

// RunSample is one plan node's worth of actuals. The stratum executor runs
// each region between transfers as one engine evaluation, and the engine
// reports a sample per node of the region from inside its pipeline
// (eval.NodeObserver); the executor hands them to EXPLAIN ANALYZE keyed by
// plan path, with the additive fields reduced to the node's own share. A
// node that streams has no materialization time of its own: Wall is the time
// spent in its pulls, less its children's. PeakBytes is not additive — it is
// the region's, and is reported on the region's root node only.
type RunSample struct {
	Rows    int64         // tuples the node produced
	Batches int64         // columnar batches it produced
	Wall    time.Duration // wall time spent in the node
	Spill
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
	n.Spill.Add(s.Spill)
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
