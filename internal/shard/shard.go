// Package shard derives a deterministic partitioning of a catalog across n
// shards — the coordinator's and the shard servers' shared view of who
// holds which rows. Both sides derive the same Map from the same catalog
// (the derivation is a pure function of the stored data), so no shard map
// ever travels over the wire: tqserver -shard i/n keeps slice i, the
// coordinator plans against the full catalog and knows exactly where every
// row went.
//
// Two strategies exist per relation. Range partitioning cuts the stored
// order into contiguous slices, aligned to value-group boundaries when the
// relation's value-equivalent rows are stored contiguously — that keeps
// whole groups on one shard, which is what lets group operations (temporal
// coalescing, duplicate elimination, aggregation) push down without a
// cross-shard combine. Hash partitioning assigns each row by a hash of a
// key of value attributes, which also colocates value-equivalent rows but
// spreads groups evenly regardless of storage order.
//
// Auto mode hashes every relation holding the catalog's shared key — the
// value attribute held by the most relations (at least two), ties broken by
// name; EmpName in the paper's database — on that attribute alone. Rows
// equal on the key then land on one shard in every relation, so the
// relations are co-partitioned (CoPartitioned): a temporal difference of two
// of them, or a tree of rdupᵀ, coalᵀ and \ᵀ over them that keeps the key,
// is local to each shard. A relation without the key is range-partitioned
// when stored grouped and hashed on all its value attributes otherwise.
// Either way a shard's slice preserves the stored order of its rows, so
// every local row keeps its global sequence key (its position in the
// unsharded relation) — the coordinate system the coordinator's
// deterministic merges work in.
package shard

import (
	"fmt"
	"slices"

	"tqp/internal/catalog"
	"tqp/internal/physical"
	"tqp/internal/relation"
)

// Strategy is how one relation is split across shards.
type Strategy uint8

const (
	// Hash assigns row t to shard HashOn(key) % n.
	Hash Strategy = iota
	// Range assigns contiguous slices of the stored order.
	Range
)

// String names the strategy.
func (s Strategy) String() string {
	if s == Range {
		return "range"
	}
	return "hash"
}

// Mode selects how NewMap picks each relation's strategy.
type Mode uint8

const (
	// Auto hashes the relations holding the catalog's shared key on that
	// key alone; any other relation is Range when stored grouped on its
	// value attributes and Hash on all of them otherwise.
	Auto Mode = iota
	// ForceHash hashes every relation.
	ForceHash
	// ForceRange range-partitions every relation (cut at group
	// boundaries when the data allows, plain equal slices otherwise).
	ForceRange
)

// ParseMode parses a mode flag value: "auto", "hash" or "range".
func ParseMode(s string) (Mode, error) {
	switch s {
	case "auto", "":
		return Auto, nil
	case "hash":
		return ForceHash, nil
	case "range":
		return ForceRange, nil
	}
	return Auto, fmt.Errorf("shard: unknown mode %q (want 'auto', 'hash' or 'range')", s)
}

// Map is the partitioning of one catalog across N shards.
type Map struct {
	N    int
	cat  *catalog.Catalog
	rels map[string]*relPart
}

type relPart struct {
	strategy Strategy
	key      []int // Hash: the hashed attribute positions (the colocation set)
	cuts     []int // Range: N+1 slice boundaries into the stored order
	assign   []int // Hash: row position -> shard index
}

// NewMap derives the partitioning of cat across n shards in Auto mode.
func NewMap(cat *catalog.Catalog, n int) (*Map, error) {
	return NewMapMode(cat, n, Auto)
}

// NewMapMode derives the partitioning with an explicit strategy mode.
func NewMapMode(cat *catalog.Catalog, n int, mode Mode) (*Map, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: want at least 1 shard, got %d", n)
	}
	m := &Map{N: n, cat: cat, rels: make(map[string]*relPart)}
	shared := ""
	if mode == Auto {
		shared = sharedKey(cat)
	}
	for _, name := range cat.Names() {
		e, err := cat.Entry(name)
		if err != nil {
			return nil, err
		}
		sch := e.Rel.Schema()
		p := &relPart{strategy: Hash, key: physical.ValueIdx(sch)}
		if j := sch.Index(shared); shared != "" && j >= 0 {
			p.key = []int{j}
		} else if mode != ForceHash {
			if grouped, bounds := groupRuns(e.Rel, p.key); grouped || mode == ForceRange {
				p.strategy, p.key = Range, nil
				if !grouped {
					// Forced range over ungrouped data: cut anywhere.
					bounds = everyRow(e.Rel.Len())
				}
				p.cuts = cutAt(bounds, e.Rel.Len(), n)
			}
		}
		if p.strategy == Hash {
			p.assign = make([]int, e.Rel.Len())
			for i, t := range e.Rel.Tuples() {
				p.assign[i] = int(t.HashOn(p.key) % uint64(n))
			}
		}
		m.rels[name] = p
	}
	return m, nil
}

// sharedKey is Auto mode's co-partitioning key: the value attribute name
// held by the most of cat's relations, ties broken by the smaller name, or
// "" when no value attribute is held by two relations.
func sharedKey(cat *catalog.Catalog) string {
	held := make(map[string]int)
	for _, name := range cat.Names() {
		e, err := cat.Entry(name)
		if err != nil {
			continue
		}
		sch := e.Rel.Schema()
		for _, j := range physical.ValueIdx(sch) {
			held[sch.At(j).Name]++
		}
	}
	best, most := "", 1
	for a, k := range held {
		if k > most || (k == most && best != "" && a < best) {
			best, most = a, k
		}
	}
	return best
}

// StrategyOf reports the strategy chosen for one relation.
func (m *Map) StrategyOf(rel string) (Strategy, bool) {
	p, ok := m.rels[rel]
	if !ok {
		return 0, false
	}
	return p.strategy, true
}

// Positions returns the global sequence keys of shard i's slice of rel, in
// stored order.
func (m *Map) Positions(rel string, i int) ([]int, error) {
	p, ok := m.rels[rel]
	if !ok {
		return nil, fmt.Errorf("shard: unknown relation %q", rel)
	}
	if i < 0 || i >= m.N {
		return nil, fmt.Errorf("shard: index %d out of range [0,%d)", i, m.N)
	}
	if p.strategy == Range {
		lo, hi := p.cuts[i], p.cuts[i+1]
		out := make([]int, hi-lo)
		for j := range out {
			out[j] = lo + j
		}
		return out, nil
	}
	var out []int
	for j, s := range p.assign {
		if s == i {
			out = append(out, j)
		}
	}
	if out == nil {
		out = []int{}
	}
	return out, nil
}

// Partition materializes shard i: a catalog holding slice i of every
// relation (stored order preserved, base info carried over — every flag is
// downward-closed under taking subsequences) plus the slices' global
// sequence keys. The sub-catalog is what a shard server loads; the
// positions are what it reports for provenance.
func (m *Map) Partition(i int) (*catalog.Catalog, map[string][]int, error) {
	out := catalog.New()
	positions := make(map[string][]int, len(m.rels))
	for _, name := range m.cat.Names() {
		e, err := m.cat.Entry(name)
		if err != nil {
			return nil, nil, err
		}
		pos, err := m.Positions(name, i)
		if err != nil {
			return nil, nil, err
		}
		// The slice is compacted here, once: a fragment over a dense slice
		// scans its planes as they are (exec.RunFragment compacts a view).
		sub := relation.FromColumnar(e.Rel.Schema(), e.Rel.Permuted(pos).Columns().Compact())
		if err := out.AddTrusted(name, sub, e.Info); err != nil {
			return nil, nil, err
		}
		positions[name] = pos
	}
	return out, positions, nil
}

// Colocated reports whether every group of value-equivalent-on-attrs rows
// of rel lives wholly on one shard — the precondition for pushing a group
// operation on attrs down to the shards. Hash partitioning colocates any
// grouping that includes all hashed attributes; Range partitioning is
// checked against the data: the grouping must be contiguous in the stored
// order and no cut may split a run.
func (m *Map) Colocated(rel string, attrs []string) bool {
	p, ok := m.rels[rel]
	if !ok {
		return false
	}
	e, err := m.cat.Entry(rel)
	if err != nil {
		return false
	}
	sch := e.Rel.Schema()
	idx := make([]int, 0, len(attrs))
	for _, a := range attrs {
		j := sch.Index(a)
		if j < 0 {
			return false
		}
		idx = append(idx, j)
	}
	if p.strategy == Hash {
		// Rows agreeing on attrs ⊇ key agree on key, so they hash alike.
		for _, v := range p.key {
			found := false
			for _, j := range idx {
				if j == v {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	grouped, bounds := groupRuns(e.Rel, idx)
	if !grouped {
		return false
	}
	isBound := make(map[int]bool, len(bounds))
	for _, b := range bounds {
		isBound[b] = true
	}
	for _, c := range p.cuts[1:m.N] {
		if c != e.Rel.Len() && !isBound[c] {
			return false
		}
	}
	return true
}

// CoPartitioned reports whether rows of different relations that agree
// position-wise on their attributes live on one shard: attrs[i] names
// attributes of rels[i], and attrs[i][k] pairs with attrs[j][k] — the
// precondition for pushing a binary group operation (\ᵀ) down to the
// shards. One shard holds everything. Otherwise every relation must be
// hashed, and its hashed attributes must sit at the same positions of its
// attrs in every relation, so agreeing rows hash alike wherever they are
// stored. Range cuts are per relation and never line up.
func (m *Map) CoPartitioned(rels []string, attrs [][]string) bool {
	if len(rels) != len(attrs) {
		return false
	}
	var at []int // the positions in attrs of the first relation's key
	for i, rel := range rels {
		p := m.rels[rel]
		if p == nil {
			return false
		}
		if m.N == 1 {
			continue
		}
		if p.strategy != Hash {
			return false
		}
		e, err := m.cat.Entry(rel)
		if err != nil {
			return false
		}
		pos := make([]int, len(p.key))
		for k, j := range p.key {
			if pos[k] = slices.Index(attrs[i], e.Rel.Schema().At(j).Name); pos[k] < 0 {
				return false
			}
		}
		if i > 0 && !slices.Equal(pos, at) {
			return false
		}
		at = pos
	}
	return true
}

// groupRuns scans rel's stored order for runs of rows equal on the idx
// attributes. It reports whether the relation is grouped — every distinct
// idx-combination occupies exactly one contiguous run — and the run-start
// boundaries (excluding 0). Repeat detection hashes combinations; a
// collision can only demote "grouped" to "ungrouped", never the reverse,
// so the answer errs on the safe side.
func groupRuns(rel *relation.Relation, idx []int) (bool, []int) {
	n := rel.Len()
	var bounds []int
	seen := make(map[uint64]bool)
	grouped := true
	for i := 0; i < n; i++ {
		if i > 0 && rel.At(i-1).EqualOn(idx, rel.At(i)) {
			continue
		}
		if i > 0 {
			bounds = append(bounds, i)
		}
		h := rel.At(i).HashOn(idx)
		if seen[h] {
			grouped = false
		}
		seen[h] = true
	}
	return grouped, bounds
}

// everyRow is the boundary set of ungrouped data: a cut may fall anywhere.
func everyRow(n int) []int {
	out := make([]int, 0, n)
	for i := 1; i < n; i++ {
		out = append(out, i)
	}
	return out
}

// cutAt picks n+1 slice boundaries over a length-total relation, each cut
// at the first allowed boundary at or past the balanced position.
func cutAt(bounds []int, total, n int) []int {
	cuts := make([]int, n+1)
	cuts[n] = total
	bi := 0
	for i := 1; i < n; i++ {
		ideal := i * total / n
		if ideal < cuts[i-1] {
			ideal = cuts[i-1]
		}
		for bi < len(bounds) && bounds[bi] < ideal {
			bi++
		}
		if bi < len(bounds) {
			cuts[i] = bounds[bi]
		} else {
			cuts[i] = total
		}
	}
	return cuts
}
